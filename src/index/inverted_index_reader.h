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
/// The directory is held in memory (one entry per distinct min-hash key, at
/// most vocabulary-sized); list and zone reads hit the disk through
/// positional pread-style IO, so any number of threads may read lists
/// concurrently. The `bytes_read()` counter is the IO-cost metric the
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

  /// Total bytes physically read so far.
  uint64_t bytes_read() const override { return reader_.bytes_read(); }

 private:
  InvertedIndexReader(FileReader reader, uint32_t func, uint32_t zone_step,
                      index_format::PostingFormat format);

  /// Decodes `max_windows` windows of a compressed run starting at a
  /// restart point. Stops early if the buffer is exhausted.
  Status DecodeRun(const char* p, const char* limit, uint64_t max_windows,
                   std::vector<PostedWindow>* out) const;

  FileReader reader_;
  uint32_t func_ = 0;
  uint32_t zone_step_ = 64;
  index_format::PostingFormat format_ = index_format::kFormatRaw;
  uint64_t num_windows_ = 0;
  std::vector<ListMeta> directory_;
  std::vector<Token> keys_;  ///< directory_[i].key, for FindList
};

}  // namespace ndss

#endif  // NDSS_INDEX_INVERTED_INDEX_READER_H_
