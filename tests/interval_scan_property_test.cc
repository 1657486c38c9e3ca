// Property tests pinning the optimized query hot-path kernels to their
// reference oracles (src/query/reference/): thousands of seeded random
// inputs, each checked for exact agreement. The regimes deliberately hit
// the historical failure modes — same-coordinate endpoint pileups, alpha=1,
// duplicate interval ids, and intervals touching UINT32_MAX (the end + 1
// wraparound bug).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "index/varint_block.h"
#include "query/collision_count.h"
#include "query/interval_scan.h"
#include "query/radix_sort.h"
#include "query/reference/reference_kernels.h"

namespace ndss {
namespace {

// Coordinate regimes. Tiny ranges force dense endpoint pileups (many events
// per coordinate, heavy coalescing pressure); the max regime puts begins
// and ends within a few units of UINT32_MAX.
enum class Regime { kTiny, kMedium, kMax };

std::vector<Interval> RandomIntervals(Rng& rng, size_t m, Regime regime,
                                      bool duplicate_ids) {
  std::vector<Interval> intervals;
  intervals.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    uint32_t begin = 0;
    uint32_t length = 0;
    switch (regime) {
      case Regime::kTiny:
        begin = static_cast<uint32_t>(rng.Uniform(9));
        length = static_cast<uint32_t>(rng.Uniform(9));
        break;
      case Regime::kMedium:
        begin = static_cast<uint32_t>(rng.Uniform(1001));
        length = static_cast<uint32_t>(rng.Uniform(200));
        break;
      case Regime::kMax:
        begin = UINT32_MAX - static_cast<uint32_t>(rng.Uniform(12));
        length = static_cast<uint32_t>(rng.Uniform(12));
        break;
    }
    const uint32_t end =
        begin > UINT32_MAX - length ? UINT32_MAX : begin + length;
    const uint32_t id = duplicate_ids
                            ? static_cast<uint32_t>(rng.Uniform(1 + m / 3))
                            : static_cast<uint32_t>(i);
    intervals.push_back({begin, end, id});
  }
  return intervals;
}

std::vector<uint32_t> AlphaSchedule(size_t m) {
  std::vector<uint32_t> alphas = {1, 2, 3};
  alphas.push_back(std::max<uint32_t>(1, static_cast<uint32_t>(m / 2)));
  alphas.push_back(static_cast<uint32_t>(m));
  return alphas;
}

// Exact agreement up to the documented freedom: member order within a group
// is unspecified, so members are compared sorted.
void ExpectSameGroups(const std::vector<IntervalGroup>& fast,
                      const std::vector<IntervalGroup>& oracle,
                      const std::string& label) {
  ASSERT_EQ(fast.size(), oracle.size()) << label;
  for (size_t g = 0; g < fast.size(); ++g) {
    EXPECT_EQ(fast[g].overlap_begin, oracle[g].overlap_begin)
        << label << " group " << g;
    EXPECT_EQ(fast[g].overlap_end, oracle[g].overlap_end)
        << label << " group " << g;
    std::vector<uint32_t> a = fast[g].members;
    std::vector<uint32_t> b = oracle[g].members;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << label << " group " << g;
  }
}

TEST(IntervalScanPropertyTest, MatchesReferenceOracle) {
  Rng rng(20230601);
  int cases = 0;
  for (int trial = 0; trial < 120; ++trial) {
    for (Regime regime : {Regime::kTiny, Regime::kMedium, Regime::kMax}) {
      const size_t m = 1 + rng.Uniform(trial % 4 == 0 ? 200 : 40);
      const bool duplicate_ids = rng.Uniform(3) == 0;
      const std::vector<Interval> intervals =
          RandomIntervals(rng, m, regime, duplicate_ids);
      for (uint32_t alpha : AlphaSchedule(m)) {
        std::vector<IntervalGroup> fast, oracle;
        const Status fast_status = IntervalScan(intervals, alpha, &fast);
        const Status oracle_status =
            reference::IntervalScan(intervals, alpha, &oracle);
        ASSERT_EQ(fast_status.ok(), oracle_status.ok());
        const std::string label = "trial " + std::to_string(trial) +
                                  " regime " +
                                  std::to_string(static_cast<int>(regime)) +
                                  " alpha " + std::to_string(alpha);
        ExpectSameGroups(fast, oracle, label);
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 1000);  // the contract: >= 1k seeded random inputs
}

TEST(IntervalScanPropertyTest, CollisionCountMatchesReferenceOracle) {
  Rng rng(77003);
  for (int trial = 0; trial < 250; ++trial) {
    // Reference CollisionCount materializes members (O(m^2)); keep groups
    // modest.
    const size_t m = 1 + rng.Uniform(64);
    const bool tiny = rng.Uniform(2) == 0;
    std::vector<PostedWindow> windows;
    for (size_t w = 0; w < m; ++w) {
      const uint32_t c = static_cast<uint32_t>(rng.Uniform(tiny ? 8 : 60));
      const uint32_t l = c - std::min<uint32_t>(c, rng.Uniform(tiny ? 6 : 20));
      const uint32_t r = c + static_cast<uint32_t>(rng.Uniform(tiny ? 6 : 20));
      windows.push_back(PostedWindow{0, l, c, r});
    }
    for (uint32_t alpha :
         {1u, 2u, 3u, static_cast<uint32_t>(std::max<size_t>(1, m / 2))}) {
      std::vector<MatchRectangle> fast, oracle;
      const Status fast_status = CollisionCount(windows, alpha, &fast);
      const Status oracle_status =
          reference::CollisionCount(windows, alpha, &oracle);
      ASSERT_TRUE(fast_status.ok());
      ASSERT_TRUE(oracle_status.ok());
      // Rectangles have no ordering freedom: exact vector equality.
      EXPECT_EQ(fast, oracle) << "trial " << trial << " alpha " << alpha;
    }
  }
}

TEST(IntervalScanPropertyTest, RadixSortMatchesStableSort) {
  Rng rng(31337);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = rng.Uniform(2000);
    std::vector<std::pair<uint64_t, uint32_t>> fast;
    fast.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      // Mix narrow and wide keys so some byte digits are constant (the
      // skip path) and some vary.
      const uint64_t key = rng.Uniform(4) == 0
                               ? (static_cast<uint64_t>(rng.Uniform(1000))
                                  << 32) |
                                     rng.Uniform(1000)
                               : rng.Uniform(50);
      fast.push_back({key, static_cast<uint32_t>(i)});
    }
    std::vector<std::pair<uint64_t, uint32_t>> oracle = fast;
    RadixSortByKey(&fast, [](const std::pair<uint64_t, uint32_t>& p) {
      return p.first;
    });
    reference::SortByKey(&oracle);
    // Both sorts are stable, so the payloads must agree exactly, not just
    // the keys.
    EXPECT_EQ(fast, oracle) << "trial " << trial;
  }
}

// Writer-faithful encoding of one run: window 0 absolute text, the rest
// text deltas; per window (text field, l, c - l, r - c).
std::string EncodeRun(const std::vector<PostedWindow>& windows) {
  std::string buf;
  uint32_t prev_text = 0;
  for (size_t i = 0; i < windows.size(); ++i) {
    const PostedWindow& w = windows[i];
    PutVarint32(&buf, i == 0 ? w.text : w.text - prev_text);
    prev_text = w.text;
    PutVarint32(&buf, w.l);
    PutVarint32(&buf, w.c - w.l);
    PutVarint32(&buf, w.r - w.c);
  }
  return buf;
}

TEST(IntervalScanPropertyTest, BlockDecodeMatchesReferenceDecode) {
  Rng rng(5150);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t count = 1 + rng.Uniform(200);
    std::vector<PostedWindow> windows;
    uint32_t text = static_cast<uint32_t>(rng.Uniform(100));
    for (size_t i = 0; i < count; ++i) {
      if (rng.Uniform(3) == 0) text += static_cast<uint32_t>(rng.Uniform(1u << 20));
      const uint32_t l = static_cast<uint32_t>(rng.Uniform(1u << 28));
      const uint32_t c = l + static_cast<uint32_t>(rng.Uniform(1u << 14));
      windows.push_back(PostedWindow{text, l, c,
                                     c + static_cast<uint32_t>(
                                             rng.Uniform(1u << 14))});
    }
    std::string encoded = EncodeRun(windows);
    // Sometimes truncate mid-stream: both decoders must agree on the clean
    // prefix and on whether the tail is a hard error (nullptr).
    if (rng.Uniform(3) == 0 && !encoded.empty()) {
      encoded.resize(rng.Uniform(encoded.size()));
    }
    const char* p = encoded.data();
    const char* limit = p + encoded.size();

    std::vector<PostedWindow> fast(count), oracle(count);
    uint64_t fast_n = 0, oracle_n = 0;
    const char* fast_end = DecodeWindowRun(p, limit, count, fast.data(),
                                           &fast_n);
    const char* oracle_end = reference::DecodeWindowRun(
        p, limit, count, oracle.data(), &oracle_n);
    ASSERT_EQ(fast_end == nullptr, oracle_end == nullptr) << "trial " << trial;
    if (fast_end == nullptr) continue;
    ASSERT_EQ(fast_end, oracle_end) << "trial " << trial;
    ASSERT_EQ(fast_n, oracle_n) << "trial " << trial;
    fast.resize(fast_n);
    oracle.resize(oracle_n);
    EXPECT_EQ(fast, oracle) << "trial " << trial;
  }
}

// Every decoder that can serve DecodeWindowRun: the dispatched wrapper,
// the scalar chunked path, and (when this CPU supports it) the word
// path. The dispatched wrapper is tested in its own right so calibration
// can never pick a path the suite did not cover.
struct NamedDecoder {
  const char* name;
  WindowDecodeFn fn;
};

std::vector<NamedDecoder> DecodersUnderTest() {
  std::vector<NamedDecoder> decoders;
  decoders.push_back({"dispatched", &DecodeWindowRun});
  decoders.push_back({"scalar", &DecodeWindowRunScalar});
#if defined(NDSS_VARINT_WORD)
  if (WordWindowDecodeSupported()) {
    decoders.push_back({"word", &DecodeWindowRunWord});
  }
#endif
  return decoders;
}

TEST(IntervalScanPropertyTest, BlockDecodeTruncationSweep) {
  // Truncate a multi-chunk run at EVERY byte offset and decode with every
  // max_windows regime: each prefix must reproduce the reference decoder
  // exactly — same windows, same end pointer, same nullptr on a torn
  // varint. This is the regime where fast paths hand off to their checked
  // tail loops (the historical parity bug), so sweep three encoding
  // profiles that move the handoff point around.
  Rng rng(424242);
  constexpr size_t kCount = 100;
  for (int profile = 0; profile < 3; ++profile) {
    std::vector<PostedWindow> windows;
    uint32_t text = 0;
    for (size_t i = 0; i < kCount; ++i) {
      uint32_t l = 0, dc = 0, dr = 0;
      switch (profile) {
        case 0:  // every varint one byte: densest windows, pure fast path
          text += static_cast<uint32_t>(rng.Uniform(3));
          l = static_cast<uint32_t>(rng.Uniform(100));
          dc = static_cast<uint32_t>(rng.Uniform(100));
          dr = static_cast<uint32_t>(rng.Uniform(100));
          break;
        case 1:  // fat varints: windows near the 20-byte encoding bound
          text += static_cast<uint32_t>(rng.Uniform(1u << 27));
          l = static_cast<uint32_t>(rng.Uniform(1u << 28));
          dc = static_cast<uint32_t>(rng.Uniform(1u << 21));
          dr = static_cast<uint32_t>(rng.Uniform(1u << 21));
          break;
        default:  // mixed widths: handoff points land everywhere
          if (rng.Uniform(4) == 0) {
            text += static_cast<uint32_t>(rng.Uniform(1u << 20));
          }
          l = static_cast<uint32_t>(rng.Uniform(rng.Uniform(2) == 0
                                                    ? 100u
                                                    : (1u << 28)));
          dc = static_cast<uint32_t>(rng.Uniform(1u << 14));
          dr = static_cast<uint32_t>(rng.Uniform(1u << 14));
          break;
      }
      windows.push_back(PostedWindow{text, l, l + dc, l + dc + dr});
    }
    const std::string encoded = EncodeRun(windows);
    const std::vector<NamedDecoder> decoders = DecodersUnderTest();
    const uint64_t regimes[] = {0, kCount / 2, kCount, kCount + 3};
    for (size_t cut = 0; cut <= encoded.size(); ++cut) {
      const char* p = encoded.data();
      const char* limit = p + cut;
      for (const uint64_t max_windows : regimes) {
        std::vector<PostedWindow> oracle(kCount + 3);
        uint64_t oracle_n = 0;
        const char* oracle_end = reference::DecodeWindowRun(
            p, limit, max_windows, oracle.data(), &oracle_n);
        for (const NamedDecoder& d : decoders) {
          std::vector<PostedWindow> fast(kCount + 3);
          uint64_t fast_n = 0;
          const char* fast_end =
              d.fn(p, limit, max_windows, fast.data(), &fast_n);
          const std::string label = std::string(d.name) + " profile " +
                                    std::to_string(profile) + " cut " +
                                    std::to_string(cut) + " max_windows " +
                                    std::to_string(max_windows);
          ASSERT_EQ(fast_end == nullptr, oracle_end == nullptr) << label;
          if (fast_end == nullptr) continue;
          ASSERT_EQ(fast_end, oracle_end) << label;
          ASSERT_EQ(fast_n, oracle_n) << label;
          fast.resize(fast_n);
          std::vector<PostedWindow> expect = oracle;
          expect.resize(oracle_n);
          ASSERT_EQ(fast, expect) << label;
        }
      }
    }
  }
}

TEST(IntervalScanPropertyTest, BlockDecodeBoundaryRegimes) {
  // The two boundary cases pinned explicitly (the sweep above also crosses
  // them): a run whose last window ends exactly at `limit` must decode
  // completely and return `limit`, and max_windows == 0 must decode
  // nothing and return `p` untouched.
  std::vector<PostedWindow> windows;
  for (uint32_t i = 0; i < 70; ++i) {
    // Mixed widths so the exact-limit case exercises both the fast path
    // (early windows) and the checked tail (final windows).
    const uint32_t l = (i % 3 == 0) ? (1u << 27) : i;
    windows.push_back(PostedWindow{i * 5, l, l + i, l + 2 * i});
  }
  const std::string encoded = EncodeRun(windows);
  const char* p = encoded.data();
  const char* limit = p + encoded.size();
  for (const NamedDecoder& d : DecodersUnderTest()) {
    std::vector<PostedWindow> out(windows.size());
    uint64_t n = 0;
    const char* end = d.fn(p, limit, windows.size(), out.data(), &n);
    ASSERT_EQ(end, limit) << d.name;
    ASSERT_EQ(n, windows.size()) << d.name;
    EXPECT_EQ(out, windows) << d.name;
    n = 77;
    end = d.fn(p, limit, 0, out.data(), &n);
    EXPECT_EQ(end, p) << d.name;
    EXPECT_EQ(n, 0u) << d.name;
  }
}

TEST(IntervalScanPropertyTest, BlockDecodeRejectsOverlongVarint) {
  // Five continuation bytes: every decoder must fail identically whether
  // the run is decoded checked (short buffer) or unchecked (long buffer),
  // and whether the overlong varint opens the stream or sits behind a few
  // valid windows (mid-stream, inside the fast loops).
  for (const size_t valid_prefix : {size_t{0}, size_t{3}, size_t{9}}) {
    std::vector<PostedWindow> windows;
    for (uint32_t i = 0; i < valid_prefix; ++i) {
      windows.push_back(PostedWindow{i, i, 2 * i, 3 * i});
    }
    std::string encoded = EncodeRun(windows);
    for (int i = 0; i < 5; ++i) encoded.push_back(static_cast<char>(0xff));
    encoded.push_back(0x01);
    encoded.append(64, '\0');  // plenty of slack: forces the unchecked path
    std::vector<PostedWindow> out(valid_prefix + 4);
    uint64_t n = 0;
    EXPECT_EQ(reference::DecodeWindowRun(
                  encoded.data(), encoded.data() + encoded.size(),
                  valid_prefix + 4, out.data(), &n),
              nullptr);
    for (const NamedDecoder& d : DecodersUnderTest()) {
      EXPECT_EQ(d.fn(encoded.data(), encoded.data() + encoded.size(),
                     valid_prefix + 4, out.data(), &n),
                nullptr)
          << d.name << " valid_prefix " << valid_prefix;
    }
  }
}

}  // namespace
}  // namespace ndss
