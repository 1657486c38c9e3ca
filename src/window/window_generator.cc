#include "window/window_generator.h"

#include <algorithm>

#include "common/logging.h"

namespace ndss {

void WindowGenerator::Generate(const SketchScheme& scheme, uint32_t func,
                               std::span<const Token> text, uint32_t t,
                               std::vector<CompactWindow>* out) {
  NDSS_CHECK(t >= 1) << "length threshold must be >= 1";
  const size_t n = text.size();
  if (n < t) return;
  hashes_.resize(n);
  scheme.FillHashRow(func, text.data(), n, hashes_.data());
  if (method_ == WindowGenMethod::kMonotonicStack) {
    GenerateStack(t, out);
  } else {
    GenerateRmq(t, out);
  }
}

void WindowGenerator::GenerateFromBase(const SketchScheme& scheme,
                                       uint32_t func,
                                       std::span<const uint64_t> base,
                                       uint32_t t,
                                       std::vector<CompactWindow>* out) {
  NDSS_CHECK(t >= 1) << "length threshold must be >= 1";
  const size_t n = base.size();
  if (n < t) return;
  hashes_.resize(n);
  scheme.FillHashRowFromBase(func, base.data(), n, hashes_.data());
  if (method_ == WindowGenMethod::kMonotonicStack) {
    GenerateStack(t, out);
  } else {
    GenerateRmq(t, out);
  }
}

// Divide-and-conquer (Algorithm 2) with an explicit work stack: recursion
// depth is Θ(n) in the worst case (monotone hash arrays), which would
// overflow the call stack for long texts.
void WindowGenerator::GenerateRmq(uint32_t t, std::vector<CompactWindow>* out) {
  const size_t n = hashes_.size();
  auto rmq = MakeRmq(rmq_kind_, std::span<const uint64_t>(hashes_));
  // Work items are inclusive ranges [l, r], encoded as two entries.
  std::vector<std::pair<uint32_t, uint32_t>> work;
  work.emplace_back(0, static_cast<uint32_t>(n - 1));
  while (!work.empty()) {
    const auto [l, r] = work.back();
    work.pop_back();
    if (r - l + 1 < t) continue;
    const uint32_t c = static_cast<uint32_t>(rmq->ArgMin(l, r));
    out->push_back(CompactWindow{l, c, r});
    if (c > l && c - l >= t) work.emplace_back(l, c - 1);
    if (c < r && r - c >= t) work.emplace_back(c + 1, r);
  }
}

// Monotonic-stack formulation: the Cartesian tree of the hash array (ties
// broken to the left) assigns each position c the range
//   [ (last p < c with h[p] <= h[c]) + 1 , (first q > c with h[q] < h[c]) - 1 ]
// which is exactly the compact window Algorithm 2 would emit for c; a window
// survives the recursion's early exit iff its own width is >= t because
// ancestor ranges contain descendant ranges.
void WindowGenerator::GenerateStack(uint32_t t,
                                    std::vector<CompactWindow>* out) {
  const size_t n = hashes_.size();
  stack_.clear();
  range_left_.resize(n);
  // Left boundaries via previous-smaller-or-equal scan.
  for (size_t i = 0; i < n; ++i) {
    while (!stack_.empty() && hashes_[stack_.back()] > hashes_[i]) {
      stack_.pop_back();
    }
    range_left_[i] =
        stack_.empty() ? 0 : stack_.back() + 1;
    stack_.push_back(static_cast<uint32_t>(i));
  }
  // Right boundaries via next-strictly-smaller scan; emit on the fly.
  stack_.clear();
  for (size_t i = n; i-- > 0;) {
    while (!stack_.empty() && hashes_[stack_.back()] >= hashes_[i]) {
      stack_.pop_back();
    }
    const uint32_t right =
        stack_.empty() ? static_cast<uint32_t>(n - 1) : stack_.back() - 1;
    const uint32_t left = range_left_[i];
    if (right - left + 1 >= t) {
      out->push_back(CompactWindow{left, static_cast<uint32_t>(i), right});
    }
    stack_.push_back(static_cast<uint32_t>(i));
  }
}

void GenerateCompactWindowsReference(const SketchScheme& scheme, uint32_t func,
                                     std::span<const Token> text, uint32_t t,
                                     std::vector<CompactWindow>* out) {
  NDSS_CHECK(t >= 1) << "length threshold must be >= 1";
  const size_t n = text.size();
  if (n < t) return;
  std::vector<uint64_t> hashes(n);
  for (size_t i = 0; i < n; ++i) hashes[i] = scheme.Hash(func, text[i]);
  // Direct transliteration of Algorithm 2 with a linear-scan arg-min and
  // leftmost tie-breaking.
  struct Frame {
    uint32_t l, r;
  };
  std::vector<Frame> work{{0, static_cast<uint32_t>(n - 1)}};
  while (!work.empty()) {
    const Frame frame = work.back();
    work.pop_back();
    if (frame.r - frame.l + 1 < t) continue;
    uint32_t c = frame.l;
    for (uint32_t p = frame.l + 1; p <= frame.r; ++p) {
      if (hashes[p] < hashes[c]) c = p;
    }
    out->push_back(CompactWindow{frame.l, c, frame.r});
    if (c > frame.l) work.push_back({frame.l, c - 1});
    if (c < frame.r) work.push_back({c + 1, frame.r});
  }
}

void SortWindows(std::vector<CompactWindow>* windows) {
  std::sort(windows->begin(), windows->end(),
            [](const CompactWindow& a, const CompactWindow& b) {
              if (a.l != b.l) return a.l < b.l;
              if (a.c != b.c) return a.c < b.c;
              return a.r < b.r;
            });
}

}  // namespace ndss
