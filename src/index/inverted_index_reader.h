#ifndef NDSS_INDEX_INVERTED_INDEX_READER_H_
#define NDSS_INDEX_INVERTED_INDEX_READER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/result.h"
#include "common/status.h"
#include "index/index_format.h"
#include "index/list_source.h"
#include "index/posting.h"

namespace ndss {

/// Reads one inverted-index file written by InvertedIndexWriter (raw or
/// compressed posting format; the format is self-described in the header).
///
/// The directory is decoded at open and held in memory (one 24-byte
/// ListMeta per distinct min-hash key, at most vocabulary-sized, plus a
/// 16-byte zone reference per zoned list); list and zone reads hit the disk
/// through positional pread-style IO, so any number of threads may read
/// lists concurrently. The `bytes_read()` counter is the IO-cost metric the
/// experiments report.
class InvertedIndexReader : public InvertedListSource {
 public:
  static Result<InvertedIndexReader> Open(const std::string& path);

  InvertedIndexReader(InvertedIndexReader&&) noexcept = default;
  InvertedIndexReader& operator=(InvertedIndexReader&&) noexcept = default;

  using InvertedListSource::ReadList;
  using InvertedListSource::ReadWindowsForText;

  /// Directory entry for `key`, or nullptr if the key has no list.
  const ListMeta* FindList(Token key) const override;

  /// Reads an entire list into `out` (appending). With a `ctx`, the decode
  /// loop checks the deadline/cancellation at bounded granularity and the
  /// compressed path charges its scratch buffer to the memory budget.
  Status ReadList(const ListMeta& meta, std::vector<PostedWindow>* out,
                  uint64_t* io_bytes, const QueryContext* ctx) override;

  /// Reads only the windows of text `text` from the list (appending),
  /// using the zone map to avoid scanning the whole list when one exists
  /// (the paper's point-lookup path for long lists, Section 3.5). Partial
  /// reads that cannot verify the full list checksum validate structural
  /// invariants of every window instead (and verify the checksum whenever
  /// the probe does cover the whole list).
  Status ReadWindowsForText(const ListMeta& meta, TextId text,
                            std::vector<PostedWindow>* out,
                            uint64_t* io_bytes,
                            const QueryContext* ctx) override;

  /// Whether `meta`'s list has a zone map: exactly when it holds at least
  /// one window and at least the file's zone_threshold windows.
  bool zoned(const ListMeta& meta) const {
    return meta.count > 0 && meta.count >= zone_threshold_;
  }

  /// Number of zone-map entries of `meta`'s list (0 when not zoned): one
  /// per zone_step windows, rounded up.
  uint32_t zone_count(const ListMeta& meta) const {
    return zoned(meta) ? (meta.count - 1) / zone_step_ + 1 : 0;
  }

  /// Hash function id this file was written for.
  uint32_t func() const { return func_; }

  /// Posting-list encoding of this file.
  index_format::PostingFormat format() const { return format_; }

  /// Number of lists in the file.
  size_t num_lists() const { return directory_.size(); }

  /// Total windows in the file.
  uint64_t num_windows() const { return num_windows_; }

  /// All directory entries, sorted by key (for stats / prefix-length
  /// selection experiments).
  const std::vector<ListMeta>& directory() const override {
    return directory_;
  }

  /// How the file's bytes split: posting lists, zone maps, and directory
  /// (the varint entries plus the zone CRC table). The 64 bytes of header
  /// and footer make up the rest of file_bytes().
  uint64_t posting_bytes() const { return posting_bytes_; }
  uint64_t zone_bytes() const { return zone_bytes_; }
  uint64_t directory_bytes() const { return directory_bytes_; }
  uint64_t file_bytes() const { return reader_.size(); }

  /// Total bytes physically read so far.
  uint64_t bytes_read() const override { return reader_.bytes_read(); }

 private:
  /// Where a zoned list's zone entries are and their checksum. Kept apart
  /// from ListMeta because few lists are zoned.
  struct ZoneRef {
    Token key;
    uint32_t crc;     ///< masked CRC32C of the list's zone entries
    uint64_t offset;  ///< absolute file offset of the first entry
  };

  InvertedIndexReader(FileReader reader, uint32_t func, uint32_t zone_step,
                      uint32_t zone_threshold,
                      index_format::PostingFormat format);

  /// Decodes the varint directory and zone CRC table `metadata` (the bytes
  /// from directory_offset to the footer) of a file with `num_lists` lists.
  Status DecodeDirectory(const char* metadata, size_t size,
                         uint64_t num_lists, uint64_t directory_offset);

  /// Decodes `max_windows` windows of a compressed run starting at a
  /// restart point. Stops early if the buffer is exhausted.
  Status DecodeRun(const char* p, const char* limit, uint64_t max_windows,
                   std::vector<PostedWindow>* out) const;

  FileReader reader_;
  uint32_t func_ = 0;
  uint32_t zone_step_ = 64;
  uint32_t zone_threshold_ = 0;
  index_format::PostingFormat format_ = index_format::kFormatRaw;
  uint64_t num_windows_ = 0;
  uint64_t posting_bytes_ = 0;
  uint64_t zone_bytes_ = 0;
  uint64_t directory_bytes_ = 0;
  std::vector<ListMeta> directory_;
  std::vector<Token> keys_;     ///< directory_[i].key, for FindList
  std::vector<ZoneRef> zones_;  ///< one per zoned list, sorted by key
};

}  // namespace ndss

#endif  // NDSS_INDEX_INVERTED_INDEX_READER_H_
