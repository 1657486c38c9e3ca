#include "window/window_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/random.h"
#include "corpusgen/zipf.h"

namespace ndss {
namespace {

std::vector<Token> RandomText(size_t n, uint32_t vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<Token> text(n);
  for (auto& token : text) token = static_cast<Token>(rng.Uniform(vocab));
  return text;
}

// Every generator configuration under test.
struct GenConfig {
  WindowGenMethod method;
  RmqKind rmq;
  const char* name;
};

const GenConfig kConfigs[] = {
    {WindowGenMethod::kMonotonicStack, RmqKind::kFischerHeun, "stack"},
    {WindowGenMethod::kRmqDivideConquer, RmqKind::kSegmentTree,
     "rmq_segment_tree"},
    {WindowGenMethod::kRmqDivideConquer, RmqKind::kSparseTable,
     "rmq_sparse_table"},
    {WindowGenMethod::kRmqDivideConquer, RmqKind::kFischerHeun,
     "rmq_fischer_heun"},
};

class WindowGeneratorTest : public ::testing::TestWithParam<GenConfig> {};

TEST_P(WindowGeneratorTest, MatchesReferenceImplementation) {
  const GenConfig config = GetParam();
  SketchScheme family(SketchSchemeId::kIndependent, 4, 99);
  WindowGenerator generator(config.method, config.rmq);
  for (uint64_t seed = 0; seed < 8; ++seed) {
    for (uint32_t vocab : {3u, 10u, 1000u}) {  // small vocab → many ties
      const std::vector<Token> text = RandomText(200, vocab, seed * 13 + 1);
      for (uint32_t t : {1u, 2u, 5u, 25u, 199u, 200u, 500u}) {
        for (uint32_t func = 0; func < 4; ++func) {
          std::vector<CompactWindow> expected, actual;
          GenerateCompactWindowsReference(family, func, text, t, &expected);
          generator.Generate(family, func, text, t, &actual);
          SortWindows(&expected);
          SortWindows(&actual);
          ASSERT_EQ(actual, expected)
              << config.name << " seed=" << seed << " vocab=" << vocab
              << " t=" << t << " func=" << func;
        }
      }
    }
  }
}

TEST_P(WindowGeneratorTest, EveryLongSequenceInExactlyOneWindow) {
  // Theorem 1 part 2: each sequence with >= t tokens lies in one and only
  // one generated window.
  const GenConfig config = GetParam();
  SketchScheme family(SketchSchemeId::kIndependent, 1, 5);
  WindowGenerator generator(config.method, config.rmq);
  const uint32_t t = 4;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const std::vector<Token> text = RandomText(60, 8, seed + 40);
    std::vector<CompactWindow> windows;
    generator.Generate(family, 0, text, t, &windows);
    for (uint32_t i = 0; i < text.size(); ++i) {
      for (uint32_t j = i + t - 1; j < text.size(); ++j) {
        int containing = 0;
        for (const CompactWindow& w : windows) {
          if (w.l <= i && i <= w.c && w.c <= j && j <= w.r) ++containing;
        }
        ASSERT_EQ(containing, 1)
            << config.name << " sequence [" << i << "," << j << "]";
      }
    }
  }
}

TEST_P(WindowGeneratorTest, WindowsOfOneTextArePairwiseDisjoint) {
  // The premise of the search's pass-1 list filter: within one (function,
  // text) pair no sequence T[i, j], of any length, lies in two windows, so
  // a text collides at most once per inverted list. Window (l, c, r) holds
  // {(i, j) : l <= i <= c <= j <= r}; two such sets meet iff both their
  // [l, c] and their [c, r] ranges overlap. Zipf-skewed tokens give the
  // repeated minima (ties) that natural text has.
  const GenConfig config = GetParam();
  SketchScheme family(SketchSchemeId::kIndependent, 3, 17);
  WindowGenerator generator(config.method, config.rmq);
  for (uint64_t seed = 0; seed < 6; ++seed) {
    for (uint32_t vocab : {4u, 64u, 4096u}) {
      const ZipfSampler zipf(vocab, 1.0);
      Rng rng(seed * 7 + vocab);
      std::vector<Token> text(150 + 40 * seed);
      for (Token& token : text) token = static_cast<Token>(zipf.Sample(rng));
      for (uint32_t t : {1u, 3u, 16u}) {
        for (uint32_t func = 0; func < family.k(); ++func) {
          std::vector<CompactWindow> windows;
          generator.Generate(family, func, text, t, &windows);
          for (size_t a = 0; a < windows.size(); ++a) {
            for (size_t b = a + 1; b < windows.size(); ++b) {
              const CompactWindow& x = windows[a];
              const CompactWindow& y = windows[b];
              const bool starts_overlap = x.l <= y.c && y.l <= x.c;
              const bool ends_overlap = x.c <= y.r && y.c <= x.r;
              ASSERT_FALSE(starts_overlap && ends_overlap)
                  << config.name << " seed=" << seed << " vocab=" << vocab
                  << " t=" << t << " func=" << func << ": (" << x.l << ","
                  << x.c << "," << x.r << ") meets (" << y.l << "," << y.c
                  << "," << y.r << ")";
            }
          }
        }
      }
    }
  }
}

TEST_P(WindowGeneratorTest, CenterHoldsMinimumHash) {
  const GenConfig config = GetParam();
  SketchScheme family(SketchSchemeId::kIndependent, 1, 21);
  WindowGenerator generator(config.method, config.rmq);
  const std::vector<Token> text = RandomText(500, 50, 3);
  std::vector<CompactWindow> windows;
  generator.Generate(family, 0, text, 10, &windows);
  ASSERT_FALSE(windows.empty());
  for (const CompactWindow& w : windows) {
    const uint64_t center_hash = family.Hash(0, text[w.c]);
    for (uint32_t p = w.l; p <= w.r; ++p) {
      ASSERT_LE(center_hash, family.Hash(0, text[p]))
          << "window (" << w.l << "," << w.c << "," << w.r << ")";
    }
  }
}

TEST_P(WindowGeneratorTest, AllWindowsAreValidWidth) {
  const GenConfig config = GetParam();
  SketchScheme family(SketchSchemeId::kIndependent, 2, 8);
  WindowGenerator generator(config.method, config.rmq);
  const std::vector<Token> text = RandomText(300, 1000, 9);
  for (uint32_t t : {5u, 50u}) {
    std::vector<CompactWindow> windows;
    generator.Generate(family, 0, text, t, &windows);
    for (const CompactWindow& w : windows) {
      EXPECT_GE(w.width(), t);
      EXPECT_LE(w.l, w.c);
      EXPECT_LE(w.c, w.r);
      EXPECT_LT(w.r, text.size());
    }
  }
}

TEST_P(WindowGeneratorTest, TextShorterThanThresholdYieldsNothing) {
  const GenConfig config = GetParam();
  SketchScheme family(SketchSchemeId::kIndependent, 1, 8);
  WindowGenerator generator(config.method, config.rmq);
  const std::vector<Token> text = RandomText(10, 100, 1);
  std::vector<CompactWindow> windows;
  generator.Generate(family, 0, text, 11, &windows);
  EXPECT_TRUE(windows.empty());
  generator.Generate(family, 0, text, 10, &windows);
  EXPECT_EQ(windows.size(), 1u);  // exactly the root window
  EXPECT_EQ(windows[0].l, 0u);
  EXPECT_EQ(windows[0].r, 9u);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, WindowGeneratorTest,
                         ::testing::ValuesIn(kConfigs),
                         [](const auto& info) { return info.param.name; });

TEST(WindowTheoryTest, PaperFigure1Example) {
  // A 17-token text with distinct tokens and t = 5 yields exactly
  // 2*18/6 - 1 = 5 valid windows (Example 1).
  EXPECT_DOUBLE_EQ(ExpectedWindowCount(17, 5), 5.0);
  EXPECT_DOUBLE_EQ(ExpectedWindowCount(10, 11), 0.0);
  EXPECT_DOUBLE_EQ(ExpectedWindowCount(5, 5), 1.0);
}

// Theorem 1: E[#windows] = 2(n+1)/(t+1) - 1 over random hash draws. Checked
// empirically with distinct tokens over many independent hash functions.
TEST(WindowTheoryTest, ExpectedCountMatchesTheorem) {
  const size_t n = 300;
  std::vector<Token> text(n);
  for (size_t i = 0; i < n; ++i) text[i] = static_cast<Token>(i);  // distinct
  const uint32_t kTrials = 400;
  SketchScheme family(SketchSchemeId::kIndependent, kTrials, 2023);
  WindowGenerator generator;
  for (uint32_t t : {5u, 25u, 50u}) {
    uint64_t total = 0;
    for (uint32_t func = 0; func < kTrials; ++func) {
      std::vector<CompactWindow> windows;
      generator.Generate(family, func, text, t, &windows);
      total += windows.size();
    }
    const double mean = static_cast<double>(total) / kTrials;
    const double expected = ExpectedWindowCount(n, t);
    EXPECT_NEAR(mean, expected, 0.15 * expected)
        << "t=" << t << " mean=" << mean << " expected=" << expected;
  }
}

TEST(WindowTheoryTest, CountScalesInverselyWithThreshold) {
  const std::vector<Token> text = RandomText(5000, 100000, 77);
  SketchScheme family(SketchSchemeId::kIndependent, 1, 4);
  WindowGenerator generator;
  std::vector<size_t> counts;
  for (uint32_t t : {25u, 50u, 100u}) {
    std::vector<CompactWindow> windows;
    generator.Generate(family, 0, text, t, &windows);
    counts.push_back(windows.size());
  }
  // Halving t roughly doubles the window count (Figure 2 trend).
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[1], 2.0, 0.5);
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[2], 2.0, 0.5);
}

TEST(WindowGeneratorEdgeTest, SingleTokenText) {
  SketchScheme family(SketchSchemeId::kIndependent, 1, 1);
  WindowGenerator generator;
  std::vector<Token> text = {7};
  std::vector<CompactWindow> windows;
  generator.Generate(family, 0, text, 1, &windows);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0], (CompactWindow{0, 0, 0}));
}

TEST(WindowGeneratorEdgeTest, AllIdenticalTokens) {
  SketchScheme family(SketchSchemeId::kIndependent, 1, 1);
  std::vector<Token> text(20, 5);
  for (const GenConfig& config : kConfigs) {
    WindowGenerator generator(config.method, config.rmq);
    std::vector<CompactWindow> windows, expected;
    generator.Generate(family, 0, text, 3, &windows);
    GenerateCompactWindowsReference(family, 0, text, 3, &expected);
    SortWindows(&windows);
    SortWindows(&expected);
    EXPECT_EQ(windows, expected) << config.name;
  }
}

}  // namespace
}  // namespace ndss
