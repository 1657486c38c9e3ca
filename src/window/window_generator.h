#ifndef NDSS_WINDOW_WINDOW_GENERATOR_H_
#define NDSS_WINDOW_WINDOW_GENERATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "rmq/rmq.h"
#include "sketch/sketch_scheme.h"
#include "text/types.h"
#include "window/compact_window.h"

namespace ndss {

/// How the compact-window generator locates range minima.
enum class WindowGenMethod {
  /// Paper's Algorithm 2: divide-and-conquer driven by an RMQ structure.
  /// The RmqKind argument selects the structure (segment tree = ALIGN's
  /// O(n log n); Fischer–Heun = the O(n) bound claimed in the paper).
  kRmqDivideConquer,
  /// Equivalent single-pass monotonic-stack formulation: each Cartesian-tree
  /// node's subtree range is [prev_smaller_or_equal + 1, next_smaller - 1];
  /// emit nodes whose range width is >= t. O(n) time, no auxiliary
  /// structure. Produces the same window set as the divide-and-conquer with
  /// leftmost tie-breaking (verified by tests).
  kMonotonicStack,
};

/// Generates all valid compact windows of `text` under hash function `func`
/// of a sketch scheme with length threshold `t >= 1`, appending them to
/// `out` in unspecified order. Uses the monotonic-stack method.
///
/// `scratch` is reused across calls to avoid per-text allocation; pass the
/// same object for every text of a batch.
class WindowGenerator {
 public:
  /// Creates a generator using `method`; `rmq_kind` only matters for
  /// kRmqDivideConquer.
  explicit WindowGenerator(
      WindowGenMethod method = WindowGenMethod::kMonotonicStack,
      RmqKind rmq_kind = RmqKind::kFischerHeun)
      : method_(method), rmq_kind_(rmq_kind) {}

  /// Appends the valid compact windows of `text` under function `func` of
  /// `scheme` to `out`. Windows are emitted with 0-based positions.
  void Generate(const SketchScheme& scheme, uint32_t func,
                std::span<const Token> text, uint32_t t,
                std::vector<CompactWindow>* out);

  /// Same, but derives the hash row from a precomputed base row (see
  /// SketchScheme::FillBaseRow) instead of hashing the tokens — the
  /// C-MinHash fast path, where one σ pass is shared by all k functions.
  /// `base` must be scheme.FillBaseRow of the text this call stands for and
  /// `base.size()` is the text length. Produces exactly the windows of
  /// Generate(scheme, func, text, t, out) for the corresponding text.
  void GenerateFromBase(const SketchScheme& scheme, uint32_t func,
                        std::span<const uint64_t> base, uint32_t t,
                        std::vector<CompactWindow>* out);

  WindowGenMethod method() const { return method_; }
  RmqKind rmq_kind() const { return rmq_kind_; }

 private:
  void GenerateRmq(uint32_t t, std::vector<CompactWindow>* out);
  void GenerateStack(uint32_t t, std::vector<CompactWindow>* out);

  WindowGenMethod method_;
  RmqKind rmq_kind_;
  std::vector<uint64_t> hashes_;       // token hash per position
  std::vector<uint32_t> stack_;        // monotonic stack / DFS stack
  std::vector<uint32_t> range_left_;   // stack method scratch
};

/// Reference implementation of Algorithm 2 by direct recursion with a linear
/// scan for the minimum: O(n^2) worst case. Hashes token by token through
/// SketchScheme::Hash, independent of the row-fill fast paths. Only for
/// tests (ground truth).
void GenerateCompactWindowsReference(const SketchScheme& scheme, uint32_t func,
                                     std::span<const Token> text, uint32_t t,
                                     std::vector<CompactWindow>* out);

/// Sorts windows by (l, c, r); used by tests to compare generator outputs.
void SortWindows(std::vector<CompactWindow>* windows);

}  // namespace ndss

#endif  // NDSS_WINDOW_WINDOW_GENERATOR_H_
