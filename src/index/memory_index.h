#ifndef NDSS_INDEX_MEMORY_INDEX_H_
#define NDSS_INDEX_MEMORY_INDEX_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "index/list_source.h"
#include "index/posting.h"
#include "sketch/sketch_scheme.h"
#include "text/corpus.h"
#include "window/window_generator.h"

namespace ndss {

/// One hash function's inverted index held entirely in memory — the
/// embedded counterpart of InvertedIndexWriter/Reader. Used when the corpus
/// is small or ephemeral (text alignment between two documents, tests) and
/// index files on disk would be overhead.
///
/// Lists are stored contiguously, sorted by (key, text, l); the directory
/// carries offsets into the window array (list_offset doubles as the array
/// index). Zone maps are unnecessary: per-text point lookups binary search
/// the list directly.
class InMemoryInvertedIndex : public InvertedListSource {
 public:
  /// Builds the index of hash function `func` over `corpus`: all valid
  /// compact windows with length threshold `t`, grouped by min-hash key.
  /// When `base_rows` is non-null and enabled, the per-text hash rows are
  /// derived from the precomputed base rows (the C-MinHash shared σ pass —
  /// callers building all k functions over one corpus pass the same rows to
  /// every constructor); pass nullptr to hash from the tokens directly.
  InMemoryInvertedIndex(const Corpus& corpus, const SketchScheme& scheme,
                        uint32_t func, uint32_t t,
                        WindowGenMethod method = WindowGenMethod::kMonotonicStack,
                        const CorpusBaseRows* base_rows = nullptr);

  using InvertedListSource::ReadList;
  using InvertedListSource::ReadWindowsForText;

  const ListMeta* FindList(Token key) const override;
  Status ReadList(const ListMeta& meta, std::vector<PostedWindow>* out,
                  uint64_t* io_bytes, const QueryContext* ctx) override;
  Status ReadWindowsForText(const ListMeta& meta, TextId text,
                            std::vector<PostedWindow>* out,
                            uint64_t* io_bytes,
                            const QueryContext* ctx) override;
  const std::vector<ListMeta>& directory() const override {
    return directory_;
  }
  uint64_t bytes_read() const override {
    return bytes_served_.load(std::memory_order_relaxed);
  }

  /// Total windows in the index.
  uint64_t num_windows() const { return windows_.size(); }

 private:
  std::vector<PostedWindow> windows_;  // all lists, contiguous
  std::vector<ListMeta> directory_;    // list_offset = index into windows_
  std::vector<Token> keys_;            // directory_[i].key, for FindList
  std::atomic<uint64_t> bytes_served_{0};
};

}  // namespace ndss

#endif  // NDSS_INDEX_MEMORY_INDEX_H_
