#ifndef NDSS_INDEX_LIST_SOURCE_H_
#define NDSS_INDEX_LIST_SOURCE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "index/posting.h"

namespace ndss {

class QueryContext;

/// Directory metadata of one inverted list. A serve shard holds one per
/// distinct min-hash key per function, so every byte counts in RSS: the
/// struct packs into 24 bytes with no padding. count and list_bytes are u32
/// because the writer refuses any list over index_format::kMaxListBytes;
/// zone maps are not described here (the on-disk reader keeps them in a
/// side table of its zoned lists, InvertedIndexReader::zoned).
struct ListMeta {
  Token key = 0;
  uint32_t list_crc = 0;     ///< masked CRC32C of the list bytes (0 in the
                             ///< in-memory index, which skips checks)
  uint32_t count = 0;        ///< number of windows in the list
  uint32_t list_bytes = 0;   ///< encoded size of the list in bytes
  uint64_t list_offset = 0;  ///< absolute file offset of the list (on disk)
};
static_assert(sizeof(ListMeta) == 24, "ListMeta must stay unpadded");

/// The FindList lookup both list sources share: binary-searches `keys`
/// (directory[i].key for every i, ascending) and returns &directory[i] for
/// `key`, or nullptr when the key has no list.
inline const ListMeta* FindListByKey(const std::vector<Token>& keys,
                                     const std::vector<ListMeta>& directory,
                                     Token key) {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return nullptr;
  return &directory[static_cast<size_t>(it - keys.begin())];
}

/// Access interface to one hash function's inverted lists, implemented by
/// the on-disk reader (InvertedIndexReader) and the embedded in-memory
/// index (InMemoryInvertedIndex). The query processor (Searcher) only
/// depends on this interface.
///
/// Thread-safety: FindList, directory, and the read methods may be called
/// concurrently from any number of threads once the source is open. Each
/// read method takes an optional `io_bytes` accumulator so a caller can
/// attribute IO to one query without reading the shared `bytes_read()`
/// counter (whose deltas are meaningless under concurrency), plus an
/// optional QueryContext checked at bounded granularity inside long decode
/// loops — a read under an expired deadline (or a cancelled / out-of-budget
/// query) stops early with the context's error and a possibly partial
/// `out`. nullptr means ungoverned.
class InvertedListSource {
 public:
  virtual ~InvertedListSource() = default;

  /// Directory entry for `key`, or nullptr if the key has no list. The
  /// entry is an element of directory(). Both implementations binary-search
  /// a dense array of the directory's keys built at open (4 bytes a key
  /// instead of a 24-byte stride), which shortens the lookup a query pays
  /// once per hash function.
  virtual const ListMeta* FindList(Token key) const = 0;

  /// Appends an entire list to `out`. Adds the bytes read by this call to
  /// `*io_bytes` when non-null.
  virtual Status ReadList(const ListMeta& meta, std::vector<PostedWindow>* out,
                          uint64_t* io_bytes, const QueryContext* ctx) = 0;

  /// Appends only the windows of `text` from the list to `out` (the
  /// second-pass point lookup of prefix filtering). Adds the bytes read by
  /// this call to `*io_bytes` when non-null.
  virtual Status ReadWindowsForText(const ListMeta& meta, TextId text,
                                    std::vector<PostedWindow>* out,
                                    uint64_t* io_bytes,
                                    const QueryContext* ctx) = 0;

  /// Convenience overloads without per-call IO accounting / governance.
  Status ReadList(const ListMeta& meta, std::vector<PostedWindow>* out,
                  uint64_t* io_bytes) {
    return ReadList(meta, out, io_bytes, nullptr);
  }
  Status ReadList(const ListMeta& meta, std::vector<PostedWindow>* out) {
    return ReadList(meta, out, nullptr, nullptr);
  }
  Status ReadWindowsForText(const ListMeta& meta, TextId text,
                            std::vector<PostedWindow>* out,
                            uint64_t* io_bytes) {
    return ReadWindowsForText(meta, text, out, io_bytes, nullptr);
  }
  Status ReadWindowsForText(const ListMeta& meta, TextId text,
                            std::vector<PostedWindow>* out) {
    return ReadWindowsForText(meta, text, out, nullptr, nullptr);
  }

  /// All directory entries, sorted by key.
  virtual const std::vector<ListMeta>& directory() const = 0;

  /// Cumulative bytes of posting data served across all callers (IO for the
  /// on-disk reader, logical bytes for the in-memory index).
  virtual uint64_t bytes_read() const = 0;
};

}  // namespace ndss

#endif  // NDSS_INDEX_LIST_SOURCE_H_
