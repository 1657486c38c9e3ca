#include "index/memory_index.h"

#include <algorithm>

#include "common/logging.h"
#include "common/query_context.h"
#include "index/index_format.h"
#include "index/ordered_windows.h"

namespace ndss {

InMemoryInvertedIndex::InMemoryInvertedIndex(const Corpus& corpus,
                                             const SketchScheme& scheme,
                                             uint32_t func, uint32_t t,
                                             WindowGenMethod method,
                                             const CorpusBaseRows* base_rows) {
  std::vector<KeyedWindow> keyed;
  OrderedWindowGenerator(method).Generate(corpus, scheme, base_rows, func, t,
                                          &keyed);

  windows_.reserve(keyed.size());
  size_t i = 0;
  while (i < keyed.size()) {
    const Token key = keyed[i].key;
    ListMeta meta;
    meta.key = key;
    meta.list_offset = windows_.size();
    while (i < keyed.size() && keyed[i].key == key) {
      windows_.push_back(keyed[i].ToPosted());
      ++i;
    }
    const uint64_t count = windows_.size() - meta.list_offset;
    // The per-list bound the on-disk writer enforces, so ListMeta's u32
    // fields never truncate.
    NDSS_CHECK(count * sizeof(PostedWindow) <= index_format::kMaxListBytes)
        << "inverted list for key " << key << " exceeds 4 GiB";
    meta.count = static_cast<uint32_t>(count);
    meta.list_bytes = static_cast<uint32_t>(count * sizeof(PostedWindow));
    directory_.push_back(meta);
    keys_.push_back(key);
  }
}

const ListMeta* InMemoryInvertedIndex::FindList(Token key) const {
  return FindListByKey(keys_, directory_, key);
}

Status InMemoryInvertedIndex::ReadList(const ListMeta& meta,
                                       std::vector<PostedWindow>* out,
                                       uint64_t* io_bytes,
                                       const QueryContext* ctx) {
  // One memcpy of an in-memory run: a single checkpoint suffices.
  NDSS_RETURN_NOT_OK(CheckQueryContext(ctx));
  const PostedWindow* begin = windows_.data() + meta.list_offset;
  out->insert(out->end(), begin, begin + meta.count);
  const uint64_t bytes = meta.count * sizeof(PostedWindow);
  bytes_served_.fetch_add(bytes, std::memory_order_relaxed);
  if (io_bytes != nullptr) *io_bytes += bytes;
  return Status::OK();
}

Status InMemoryInvertedIndex::ReadWindowsForText(
    const ListMeta& meta, TextId text, std::vector<PostedWindow>* out,
    uint64_t* io_bytes, const QueryContext* ctx) {
  NDSS_RETURN_NOT_OK(CheckQueryContext(ctx));
  const PostedWindow* begin = windows_.data() + meta.list_offset;
  const PostedWindow* end = begin + meta.count;
  // Lists are sorted by (text, l): binary search the text's run.
  const PostedWindow* lo = std::lower_bound(
      begin, end, text,
      [](const PostedWindow& w, TextId t) { return w.text < t; });
  const PostedWindow* hi = std::upper_bound(
      lo, end, text,
      [](TextId t, const PostedWindow& w) { return t < w.text; });
  out->insert(out->end(), lo, hi);
  const uint64_t bytes = static_cast<uint64_t>(hi - lo) * sizeof(PostedWindow);
  bytes_served_.fetch_add(bytes, std::memory_order_relaxed);
  if (io_bytes != nullptr) *io_bytes += bytes;
  return Status::OK();
}

}  // namespace ndss
