#ifndef NDSS_INDEX_INVERTED_INDEX_WRITER_H_
#define NDSS_INDEX_INVERTED_INDEX_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/result.h"
#include "common/status.h"
#include "index/index_format.h"
#include "index/posting.h"

namespace ndss {

/// Writes one inverted-index file (one hash function's index, Section 3.4),
/// format v3 — checksummed, crash-safe, with a compact varint directory.
///
/// File layout (index_format.h has the field-level description):
///
///   header    : magic u64, func u32, zone_step u32, zone_threshold u32,
///               posting format u32
///   lists     : posting lists back to back in the order they were written,
///               each sorted by (text, l); raw (16-byte records) or
///               delta+varint compressed with restart points every
///               zone_step windows
///   zones     : (text u32, position u32) pairs; lists with at least
///               `zone_threshold` windows get one entry every `zone_step`
///               windows (always including window 0) so a single text's
///               windows can be located without reading the whole list.
///               `position` is a window index (raw) or a byte offset into
///               the list (compressed). Zoned lists' entries lie back to
///               back in list order.
///   directory : per list, in list order — zigzag varint key delta, varint
///               count, varint byte length (compressed only), list CRC32C
///               u32. Offsets are prefix sums of the byte lengths; zoned-ness
///               and zone counts follow from count.
///   zone CRCs : one CRC32C u32 per zoned list, in list order
///   footer    : num_lists u64, num_windows u64, directory_offset u64,
///               checksum u32 (CRC32C of header ++ directory ++ zone CRCs
///               ++ footer prefix), pad u32, magic u64
///
/// Durability: all bytes go to `<path>.tmp`; Finish() fsyncs and atomically
/// renames onto `path`, so a crash at any earlier point leaves no file at
/// `path` (a stale temp is swept by the builders' orphan cleanup).
///
/// Lists may be fed in any key order (the external builder emits hash
/// partitions; the reader sorts the directory at open when needed) but keys
/// must be distinct, and windows within a list must be sorted by (text, l)
/// — the builders guarantee this by ordering KeyedWindows first. A list
/// over index_format::kMaxListBytes is refused with ResourceExhausted.
class InvertedIndexWriter {
 public:
  static Result<InvertedIndexWriter> Create(
      const std::string& path, uint32_t func, uint32_t zone_step,
      uint32_t zone_threshold,
      index_format::PostingFormat format = index_format::kFormatRaw);

  InvertedIndexWriter(InvertedIndexWriter&&) noexcept = default;
  InvertedIndexWriter& operator=(InvertedIndexWriter&&) noexcept = default;

  /// Starts the list for `key`.
  Status BeginList(Token key);

  /// Appends one window to the open list. Windows must be sorted by
  /// (text, l) within the list.
  Status AddWindow(const PostedWindow& window);

  /// Appends a whole sorted run to the open list.
  Status AddWindows(const PostedWindow* windows, size_t count);

  /// Convenience for builders: writes an entire sorted KeyedWindow array
  /// (grouped by key) in one pass. The array must be in KeyedWindowLess
  /// order.
  Status WriteSorted(const KeyedWindow* windows, size_t count);

  /// Closes the current list, writes zones/directory/footer, fsyncs, and
  /// atomically publishes the file at its final path.
  Status Finish();

  uint64_t num_windows() const { return num_windows_; }
  uint64_t bytes_written() const { return writer_.bytes_written(); }
  index_format::PostingFormat format() const { return format_; }

 private:
  struct DirectoryEntry {
    Token key;
    uint32_t count;
    uint32_t list_bytes;
    uint32_t list_crc;  // masked CRC32C of the list bytes
  };

  InvertedIndexWriter(FileWriter writer, std::string final_path,
                      std::string header_bytes, uint32_t zone_step,
                      uint32_t zone_threshold,
                      index_format::PostingFormat format);

  Status FlushCurrentList();

  FileWriter writer_;
  std::string final_path_;
  std::string header_bytes_;    // retained for the footer checksum
  uint32_t zone_step_;
  uint32_t zone_threshold_;
  index_format::PostingFormat format_;
  bool list_open_ = false;
  Token current_key_ = 0;
  uint64_t current_count_ = 0;
  uint64_t current_offset_ = 0;
  uint32_t current_crc_ = 0;    // running CRC32C of the open list's bytes
  TextId prev_text_ = 0;        // delta base (compressed format)
  std::string encode_buffer_;   // per-call encoding scratch (compressed)
  std::vector<std::pair<TextId, uint32_t>> current_zones_;
  std::string zone_bytes_;        // serialized zone section, in list order
  std::vector<uint32_t> zone_crcs_;  // masked CRC32C per zoned list
  std::vector<DirectoryEntry> directory_;  // in list (file) order
  uint64_t num_windows_ = 0;
  bool finished_ = false;
};

}  // namespace ndss

#endif  // NDSS_INDEX_INVERTED_INDEX_WRITER_H_
