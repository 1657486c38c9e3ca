#ifndef NDSS_INDEX_ORDERED_WINDOWS_H_
#define NDSS_INDEX_ORDERED_WINDOWS_H_

#include <cstdint>
#include <vector>

#include "index/posting.h"
#include "rmq/rmq.h"
#include "sketch/sketch_scheme.h"
#include "text/corpus.h"
#include "window/window_generator.h"

namespace ndss {

/// Produces one min-hash function's KeyedWindows in KeyedWindowLess order
/// (key, text, l, r) without a comparison sort over the whole function —
/// the order every inverted-list builder writes.
///
/// The order is built in two steps. AppendInTextOrder visits texts in id
/// order and orders each text's windows by (l, r): a few dozen per text,
/// and (l, r) is unique within one text's windows (each window is the range
/// of a distinct Cartesian-tree node), so the result does not depend on the
/// stack or RMQ emission order. SortByKey then runs one stable radix sort
/// on the 32-bit key; stable-by-key over a (text, l, r)-ordered run is
/// exactly KeyedWindowLess. Any order-preserving split of such a run (hash
/// partitions, spill files appended batch after batch) stays
/// (text, l, r)-ordered, so the out-of-core build sorts its partitions with
/// SortByKey alone.
///
/// Holds per-text and radix scratch; use one instance per thread.
class OrderedWindowGenerator {
 public:
  explicit OrderedWindowGenerator(
      WindowGenMethod method = WindowGenMethod::kMonotonicStack,
      RmqKind rmq_kind = RmqKind::kFischerHeun)
      : generator_(method, rmq_kind) {}

  /// Replaces `*out` with function `func`'s valid windows (threshold `t`)
  /// of every text of `corpus`, in KeyedWindowLess order. `base_rows`, when
  /// non-null and enabled, supplies the C-MinHash base rows of `corpus`;
  /// otherwise tokens are hashed directly.
  void Generate(const Corpus& corpus, const SketchScheme& scheme,
                const CorpusBaseRows* base_rows, uint32_t func, uint32_t t,
                std::vector<KeyedWindow>* out);

  /// First step of Generate: appends the windows to `out` in
  /// (text, l, r) order.
  void AppendInTextOrder(const Corpus& corpus, const SketchScheme& scheme,
                         const CorpusBaseRows* base_rows, uint32_t func,
                         uint32_t t, std::vector<KeyedWindow>* out);

  /// Second step of Generate: stably sorts a (text, l, r)-ordered run by
  /// key, which leaves it in KeyedWindowLess order.
  void SortByKey(std::vector<KeyedWindow>* windows);

 private:
  WindowGenerator generator_;
  std::vector<CompactWindow> text_windows_;  // one text's windows
  std::vector<KeyedWindow> radix_scratch_;
};

}  // namespace ndss

#endif  // NDSS_INDEX_ORDERED_WINDOWS_H_
