#include "index/ordered_windows.h"

#include <algorithm>

#include "query/radix_sort.h"

namespace ndss {

void OrderedWindowGenerator::Generate(const Corpus& corpus,
                                      const SketchScheme& scheme,
                                      const CorpusBaseRows* base_rows,
                                      uint32_t func, uint32_t t,
                                      std::vector<KeyedWindow>* out) {
  out->clear();
  AppendInTextOrder(corpus, scheme, base_rows, func, t, out);
  SortByKey(out);
}

void OrderedWindowGenerator::AppendInTextOrder(const Corpus& corpus,
                                               const SketchScheme& scheme,
                                               const CorpusBaseRows* base_rows,
                                               uint32_t func, uint32_t t,
                                               std::vector<KeyedWindow>* out) {
  const bool from_base = base_rows != nullptr && base_rows->enabled();
  for (size_t i = 0; i < corpus.num_texts(); ++i) {
    const std::span<const Token> text = corpus.text(i);
    text_windows_.clear();
    if (from_base) {
      generator_.GenerateFromBase(scheme, func, base_rows->row(i), t,
                                  &text_windows_);
    } else {
      generator_.Generate(scheme, func, text, t, &text_windows_);
    }
    std::sort(text_windows_.begin(), text_windows_.end(),
              [](const CompactWindow& a, const CompactWindow& b) {
                return a.l != b.l ? a.l < b.l : a.r < b.r;
              });
    const TextId id = corpus.base_id() + static_cast<TextId>(i);
    for (const CompactWindow& w : text_windows_) {
      out->push_back(KeyedWindow{text[w.c], id, w.l, w.c, w.r});
    }
  }
}

void OrderedWindowGenerator::SortByKey(std::vector<KeyedWindow>* windows) {
  RadixSortByKey(
      windows, [](const KeyedWindow& w) { return static_cast<uint64_t>(w.key); },
      &radix_scratch_);
}

}  // namespace ndss
