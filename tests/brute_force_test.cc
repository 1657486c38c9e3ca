#include "baseline/brute_force.h"

#include <gtest/gtest.h>

#include <vector>

namespace ndss {
namespace {

Corpus MakeCorpus(std::initializer_list<std::vector<Token>> texts) {
  Corpus corpus;
  for (const auto& text : texts) corpus.AddText(text);
  return corpus;
}

TEST(BruteForceExactTest, FindsIdenticalSpan) {
  Corpus corpus = MakeCorpus({{1, 2, 3, 4, 5, 6, 7, 8},
                              {9, 10, 11, 12}});
  std::vector<Token> query = {3, 4, 5, 6};
  auto matches = BruteForceExactSearch(corpus, query, 1.0, 4);
  bool found = false;
  for (const auto& m : matches) {
    if (m.text == 0 && m.begin == 2 && m.end == 5) {
      found = true;
      EXPECT_DOUBLE_EQ(m.similarity, 1.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(BruteForceExactTest, RespectsLengthThreshold) {
  Corpus corpus = MakeCorpus({{1, 2, 3, 4, 5}});
  std::vector<Token> query = {1, 2, 3};
  for (const auto& m : BruteForceExactSearch(corpus, query, 0.5, 4)) {
    EXPECT_GE(m.end - m.begin + 1, 4u);
  }
}

TEST(BruteForceExactTest, SimilarityValuesAreExact) {
  // Query {1,2,3,4}; text span {1,2,3,9}: intersection 3, union 5 → 0.6.
  Corpus corpus = MakeCorpus({{1, 2, 3, 9}});
  std::vector<Token> query = {1, 2, 3, 4};
  auto matches = BruteForceExactSearch(corpus, query, 0.55, 4);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_DOUBLE_EQ(matches[0].similarity, 0.6);
  EXPECT_TRUE(BruteForceExactSearch(corpus, query, 0.65, 4).empty());
}

TEST(BruteForceApproxTest, ExactCopyCollidesEverywhere) {
  Corpus corpus = MakeCorpus({{5, 6, 7, 8, 9, 10}});
  SketchScheme family(SketchSchemeId::kIndependent, 16, 3);
  std::vector<Token> query = {5, 6, 7, 8, 9, 10};
  auto matches = BruteForceApproxSearch(corpus, family, query, 1.0, 6);
  ASSERT_FALSE(matches.empty());
  bool full = false;
  for (const auto& m : matches) {
    if (m.begin == 0 && m.end == 5) {
      full = true;
      EXPECT_EQ(m.collisions, 16u);
    }
  }
  EXPECT_TRUE(full);
}

TEST(BruteForceApproxTest, DisjointTokensNeverMatch) {
  Corpus corpus = MakeCorpus({{1, 2, 3, 4, 5, 6}});
  SketchScheme family(SketchSchemeId::kIndependent, 8, 3);
  std::vector<Token> query = {100, 200, 300, 400};
  EXPECT_TRUE(
      BruteForceApproxSearch(corpus, family, query, 0.5, 3).empty());
}

TEST(ContainsVerbatimTest, FindsSubsequence) {
  Corpus corpus = MakeCorpus({{1, 2, 3, 4, 5}, {6, 7, 8}});
  EXPECT_TRUE(ContainsVerbatim(corpus, std::vector<Token>{2, 3, 4}));
  EXPECT_TRUE(ContainsVerbatim(corpus, std::vector<Token>{6, 7, 8}));
  EXPECT_TRUE(ContainsVerbatim(corpus, std::vector<Token>{5}));
  EXPECT_FALSE(ContainsVerbatim(corpus, std::vector<Token>{3, 2}));
  EXPECT_FALSE(ContainsVerbatim(corpus, std::vector<Token>{5, 6}))
      << "runs must not cross text boundaries";
  EXPECT_FALSE(
      ContainsVerbatim(corpus, std::vector<Token>{1, 2, 3, 4, 5, 6}));
}

TEST(ContainsVerbatimTest, WholeTextAndEdges) {
  Corpus corpus = MakeCorpus({{9, 8, 7}});
  EXPECT_TRUE(ContainsVerbatim(corpus, std::vector<Token>{9, 8, 7}));
  EXPECT_TRUE(ContainsVerbatim(corpus, std::vector<Token>{9}));
  EXPECT_TRUE(ContainsVerbatim(corpus, std::vector<Token>{7}));
  EXPECT_FALSE(ContainsVerbatim(corpus, std::vector<Token>{9, 8, 7, 6}));
  EXPECT_TRUE(ContainsVerbatim(corpus, std::vector<Token>{}));
}

TEST(SpanJaccardTest, ComputesOnCorpusSpan) {
  Corpus corpus = MakeCorpus({{1, 2, 3, 4, 5, 6}});
  std::vector<Token> query = {2, 3, 4};
  EXPECT_DOUBLE_EQ(SpanJaccard(corpus, 0, 1, 3, query), 1.0);
  EXPECT_DOUBLE_EQ(SpanJaccard(corpus, 0, 0, 2, query), 0.5);  // {1,2,3}
}

}  // namespace
}  // namespace ndss
