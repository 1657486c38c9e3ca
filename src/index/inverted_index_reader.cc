#include "index/inverted_index_reader.h"

#include <algorithm>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/query_context.h"
#include "index/varint_block.h"

namespace ndss {

namespace idx = index_format;

InvertedIndexReader::InvertedIndexReader(FileReader reader, uint32_t func,
                                         uint32_t zone_step,
                                         uint32_t zone_threshold,
                                         idx::PostingFormat format)
    : reader_(std::move(reader)),
      func_(func),
      zone_step_(zone_step),
      zone_threshold_(zone_threshold),
      format_(format) {}

Result<InvertedIndexReader> InvertedIndexReader::Open(
    const std::string& path) {
  NDSS_ASSIGN_OR_RETURN(FileReader reader, FileReader::Open(path));
  if (reader.size() < idx::kHeaderSize + idx::kFooterSize) {
    return Status::Corruption("inverted index too small: " + path);
  }
  // Header (read raw — the bytes participate in the footer checksum).
  char header[idx::kHeaderSize];
  NDSS_RETURN_NOT_OK(reader.ReadAt(0, header, sizeof(header)));
  const uint64_t magic = DecodeFixed64(header);
  if (magic == idx::kIndexMagicV1) {
    return Status::InvalidArgument(
        "index file is format v1 (no checksums): " + path +
        "; rebuild the index with this version");
  }
  if (magic == idx::kIndexMagicV2) {
    return Status::InvalidArgument(
        "index file is format v2 (fixed-size directory entries): " + path +
        "; rebuild the index with this version");
  }
  if (magic != idx::kIndexMagic) {
    return Status::Corruption("bad index header magic: " + path);
  }
  const uint32_t func = DecodeFixed32(header + 8);
  const uint32_t zone_step = DecodeFixed32(header + 12);
  const uint32_t zone_threshold = DecodeFixed32(header + 16);
  const uint32_t format_raw = DecodeFixed32(header + 20);
  if (format_raw > idx::kFormatCompressed) {
    return Status::Corruption("unknown posting format in " + path);
  }
  if (zone_step == 0) {
    // The writer always rejects a zero zone step; a zero here is header
    // corruption, and both the run decoder and the zone probe's batching
    // divide by it.
    return Status::Corruption("zero zone step in index header: " + path);
  }
  // Footer.
  char footer[idx::kFooterSize];
  NDSS_RETURN_NOT_OK(
      reader.ReadAt(reader.size() - idx::kFooterSize, footer, sizeof(footer)));
  const uint64_t num_lists = DecodeFixed64(footer);
  const uint64_t num_windows = DecodeFixed64(footer + 8);
  const uint64_t directory_offset = DecodeFixed64(footer + 16);
  const uint32_t stored_checksum = DecodeFixed32(footer + 24);
  const uint64_t footer_magic = DecodeFixed64(footer + 32);
  if (footer_magic != idx::kIndexMagic) {
    return Status::Corruption("bad index footer magic: " + path);
  }
  const uint64_t metadata_end = reader.size() - idx::kFooterSize;
  if (directory_offset < idx::kHeaderSize || directory_offset > metadata_end) {
    return Status::Corruption("index directory offset out of range: " + path);
  }
  InvertedIndexReader result(std::move(reader), func, zone_step,
                             zone_threshold,
                             static_cast<idx::PostingFormat>(format_raw));
  result.num_windows_ = num_windows;
  // Directory and zone CRC table, verified against the footer checksum
  // (which covers header ++ both ++ the footer's first 24 bytes) before a
  // byte of them is decoded.
  std::vector<char> metadata(metadata_end - directory_offset);
  if (!metadata.empty()) {
    NDSS_RETURN_NOT_OK(result.reader_.ReadAt(directory_offset,
                                             metadata.data(),
                                             metadata.size()));
  }
  uint32_t crc = crc32c::Value(header, sizeof(header));
  crc = crc32c::Extend(crc, metadata.data(), metadata.size());
  crc = crc32c::Extend(crc, footer, 24);
  if (crc != crc32c::Unmask(stored_checksum)) {
    return Status::Corruption("index metadata checksum mismatch: " + path);
  }
  const Status decoded = result.DecodeDirectory(
      metadata.data(), metadata.size(), num_lists, directory_offset);
  if (!decoded.ok()) {
    return Status::Corruption(decoded.message() + ": " + path);
  }
  return result;
}

Status InvertedIndexReader::DecodeDirectory(const char* metadata,
                                            size_t size, uint64_t num_lists,
                                            uint64_t directory_offset) {
  if (num_lists > size / idx::kMinDirectoryEntrySize) {
    return Status::Corruption("index directory shorter than its list count");
  }
  directory_.resize(num_lists);
  // Zone offsets are collected relative to the zone section, whose start
  // (the end of the lists) is known once every list length is.
  std::vector<ZoneRef> zones;
  const char* p = metadata;
  const char* const limit = metadata + size;
  uint64_t key = 0;
  uint64_t list_offset = idx::kHeaderSize;
  uint64_t zone_offset = 0;
  for (ListMeta& meta : directory_) {
    uint64_t zigzag = 0;
    uint64_t count = 0;
    p = GetVarint64(p, limit, &zigzag);
    if (p != nullptr) p = GetVarint64(p, limit, &count);
    if (p == nullptr) return Status::Corruption("truncated index directory");
    const int64_t delta = ZigZagDecode64(zigzag);
    if (delta < -static_cast<int64_t>(key) ||
        delta > static_cast<int64_t>(0xffffffffULL - key)) {
      return Status::Corruption("directory key out of range");
    }
    key = static_cast<uint64_t>(static_cast<int64_t>(key) + delta);
    if (count > 0xffffffffULL) {
      return Status::Corruption("directory list size out of range");
    }
    uint64_t list_bytes = count * sizeof(PostedWindow);
    if (format_ == idx::kFormatCompressed) {
      p = GetVarint64(p, limit, &list_bytes);
      if (p == nullptr) return Status::Corruption("truncated index directory");
    }
    if (list_bytes > idx::kMaxListBytes) {
      return Status::Corruption("directory list size out of range");
    }
    if (limit - p < 4) return Status::Corruption("truncated index directory");
    meta.key = static_cast<Token>(key);
    meta.list_crc = DecodeFixed32(p);
    p += 4;
    meta.count = static_cast<uint32_t>(count);
    meta.list_bytes = static_cast<uint32_t>(list_bytes);
    meta.list_offset = list_offset;
    list_offset += list_bytes;
    if (zoned(meta)) {
      zones.push_back(ZoneRef{meta.key, 0, zone_offset});
      zone_offset += uint64_t{zone_count(meta)} * idx::kZoneEntrySize;
    }
  }
  if (static_cast<uint64_t>(limit - p) != zones.size() * idx::kZoneCrcSize) {
    return Status::Corruption("zone CRC table size mismatch");
  }
  // Lists and zone maps must tile the file from the header to the
  // directory exactly.
  if (list_offset + zone_offset != directory_offset) {
    return Status::Corruption("index section sizes do not match directory");
  }
  for (ZoneRef& zone : zones) {
    zone.crc = DecodeFixed32(p);
    p += idx::kZoneCrcSize;
    zone.offset += list_offset;
  }
  posting_bytes_ = list_offset - idx::kHeaderSize;
  zone_bytes_ = zone_offset;
  directory_bytes_ = size;
  // Lists are in file order; builders that write partitions (the external
  // build) leave that different from key order, which FindList needs.
  const auto by_key = [](const auto& a, const auto& b) { return a.key < b.key; };
  if (!std::is_sorted(directory_.begin(), directory_.end(), by_key)) {
    std::sort(directory_.begin(), directory_.end(), by_key);
    std::sort(zones.begin(), zones.end(), by_key);
  }
  keys_.resize(directory_.size());
  for (size_t i = 0; i < directory_.size(); ++i) {
    keys_[i] = directory_[i].key;
    if (i > 0 && keys_[i] == keys_[i - 1]) {
      return Status::Corruption("duplicate directory key " +
                                std::to_string(keys_[i]));
    }
  }
  zones_ = std::move(zones);
  return Status::OK();
}

const ListMeta* InvertedIndexReader::FindList(Token key) const {
  return FindListByKey(keys_, directory_, key);
}

Status InvertedIndexReader::DecodeRun(const char* p, const char* limit,
                                      uint64_t max_windows,
                                      std::vector<PostedWindow>* out) const {
  // Block decode straight into the output (window 0 of the run is a restart
  // point with an absolute text id). The buffer may cleanly hold fewer than
  // max_windows windows; only a varint cut off mid-byte is corruption.
  const size_t old_size = out->size();
  out->resize(old_size + max_windows);
  uint64_t decoded = 0;
  const char* q =
      DecodeWindowRun(p, limit, max_windows, out->data() + old_size, &decoded);
  if (q == nullptr) {
    out->resize(old_size);
    return Status::Corruption("truncated varint in compressed list");
  }
  out->resize(old_size + decoded);
  return Status::OK();
}

Status InvertedIndexReader::ReadList(const ListMeta& meta,
                                     std::vector<PostedWindow>* out,
                                     uint64_t* io_bytes,
                                     const QueryContext* ctx) {
  NDSS_RETURN_NOT_OK(CheckQueryContext(ctx));
  if (format_ == idx::kFormatRaw) {
    if (meta.list_bytes != meta.count * sizeof(PostedWindow)) {
      return Status::Corruption("raw list size mismatch");
    }
    const size_t old_size = out->size();
    out->resize(old_size + meta.count);
    NDSS_RETURN_NOT_OK(reader_.ReadAt(meta.list_offset, out->data() + old_size,
                                      meta.count * sizeof(PostedWindow)));
    if (io_bytes != nullptr) *io_bytes += meta.count * sizeof(PostedWindow);
    const uint32_t actual = crc32c::Value(out->data() + old_size,
                                          meta.count * sizeof(PostedWindow));
    if (actual != crc32c::Unmask(meta.list_crc)) {
      out->resize(old_size);
      return Status::Corruption("list checksum mismatch for key " +
                                std::to_string(meta.key));
    }
    return Status::OK();
  }
  // Compressed: read the encoded bytes and decode run by run (restart
  // points every zone_step_ windows). The encoded scratch buffer is charged
  // to the query's budget for its lifetime (the decoded windows are charged
  // by the caller, which knows where they end up).
  ScopedMemoryCharge scratch(ctx);
  NDSS_RETURN_NOT_OK(scratch.Charge(meta.list_bytes));
  std::vector<char> buffer(meta.list_bytes);
  if (!buffer.empty()) {
    NDSS_RETURN_NOT_OK(
        reader_.ReadAt(meta.list_offset, buffer.data(), buffer.size()));
  }
  if (io_bytes != nullptr) *io_bytes += buffer.size();
  if (crc32c::Value(buffer.data(), buffer.size()) !=
      crc32c::Unmask(meta.list_crc)) {
    return Status::Corruption("list checksum mismatch for key " +
                              std::to_string(meta.key));
  }
  const char* limit = buffer.data() + buffer.size();
  // One sequential pass, decoded a run (zone_step_ windows, delta base
  // reset at each restart point) at a time straight into preallocated
  // output — block decode does one bounds check per chunk instead of four
  // per window. A checksum-verified list must decode completely, so a short
  // run is corruption (a CRC collision or a reader bug) even though the
  // buffer ended cleanly.
  const size_t old_size = out->size();
  out->resize(old_size + meta.count);
  const char* q = buffer.data();
  uint64_t i = 0;
  uint64_t since_check = 0;
  while (i < meta.count) {
    const uint64_t run = std::min<uint64_t>(zone_step_, meta.count - i);
    uint64_t decoded = 0;
    q = DecodeWindowRun(q, limit, run, out->data() + old_size + i, &decoded);
    if (q == nullptr || decoded != run) {
      out->resize(old_size);
      return Status::Corruption("truncated varint in compressed list");
    }
    i += run;
    since_check += run;
    if (since_check >= QueryContext::kCheckIntervalWindows) {
      since_check = 0;
      const Status checkpoint = CheckQueryContext(ctx);
      if (!checkpoint.ok()) {
        out->resize(old_size);
        return checkpoint;
      }
    }
  }
  return Status::OK();
}

namespace {

/// Structural validation of one window against its in-list predecessor.
/// Lists always satisfy l <= c <= r per window and non-decreasing text ids
/// (the zone map depends on the latter); a probe that cannot afford the
/// full-list checksum rejects any window breaking those invariants instead
/// of handing corrupt positions to CollisionCount.
Status CheckWindowInvariants(const PostedWindow& w, bool has_prev,
                             TextId prev_text, Token key) {
  if (w.l > w.c || w.c > w.r) {
    return Status::Corruption("zone probe: invalid window bounds in list " +
                              std::to_string(key));
  }
  if (has_prev && w.text < prev_text) {
    return Status::Corruption("zone probe: windows out of order in list " +
                              std::to_string(key));
  }
  return Status::OK();
}

}  // namespace

Status InvertedIndexReader::ReadWindowsForText(const ListMeta& meta,
                                               TextId text,
                                               std::vector<PostedWindow>* out,
                                               uint64_t* io_bytes,
                                               const QueryContext* ctx) {
  NDSS_RETURN_NOT_OK(CheckQueryContext(ctx));
  ScopedMemoryCharge scratch(ctx);
  if (!zoned(meta)) {
    // Short list: read fully and filter. The full decoded list is scratch
    // here — only the filtered windows survive into `out`.
    NDSS_RETURN_NOT_OK(scratch.Charge(meta.count * sizeof(PostedWindow)));
    std::vector<PostedWindow> all;
    all.reserve(meta.count);
    NDSS_RETURN_NOT_OK(ReadList(meta, &all, io_bytes, ctx));
    for (const PostedWindow& window : all) {
      if (window.text == text) out->push_back(window);
    }
    return Status::OK();
  }
  // Zone map: locate the first segment that can contain `text`. The zone
  // region has its own CRC (partial list reads below can't always verify
  // the full list checksum).
  const auto zone_ref = std::lower_bound(
      zones_.begin(), zones_.end(), meta.key,
      [](const ZoneRef& zone, Token key) { return zone.key < key; });
  if (zone_ref == zones_.end() || zone_ref->key != meta.key) {
    return Status::Corruption("no zone map for zoned list " +
                              std::to_string(meta.key));
  }
  const uint32_t zone_count = this->zone_count(meta);
  NDSS_RETURN_NOT_OK(scratch.Charge(zone_count * idx::kZoneEntrySize));
  std::vector<char> zones(zone_count * idx::kZoneEntrySize);
  NDSS_RETURN_NOT_OK(
      reader_.ReadAt(zone_ref->offset, zones.data(), zones.size()));
  if (io_bytes != nullptr) *io_bytes += zones.size();
  if (crc32c::Value(zones.data(), zones.size()) !=
      crc32c::Unmask(zone_ref->crc)) {
    return Status::Corruption("zone map checksum mismatch for key " +
                              std::to_string(meta.key));
  }
  // Zone entries are (text, position) with non-decreasing text. Find the
  // first entry with entry.text >= text and start one segment earlier:
  // every window before that point has text strictly below the target.
  uint32_t lo = 0;
  uint32_t hi = zone_count;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    const TextId entry_text =
        DecodeFixed32(zones.data() + mid * idx::kZoneEntrySize);
    if (entry_text >= text) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  uint32_t segment = lo == 0 ? 0 : lo - 1;

  auto zone_position = [&zones](uint32_t index) {
    return DecodeFixed32(zones.data() + index * idx::kZoneEntrySize + 4);
  };

  if (format_ == idx::kFormatRaw) {
    if (meta.list_bytes != meta.count * sizeof(PostedWindow)) {
      return Status::Corruption("raw list size mismatch");
    }
    uint64_t index = zone_position(segment);
    // When the probe starts at the head of the list and runs to its end, it
    // has seen every byte and can verify the full-list checksum; a probe
    // that stops early falls back to the per-window invariant checks.
    const bool from_start = index == 0;
    uint32_t crc = 0;
    bool has_prev = false;
    TextId prev_text = 0;
    std::vector<PostedWindow> buffer;
    while (index < meta.count) {
      // One batch is at most zone_step_ windows — the probe's checkpoint
      // granularity.
      NDSS_RETURN_NOT_OK(CheckQueryContext(ctx));
      const size_t batch = std::min<uint64_t>(zone_step_, meta.count - index);
      buffer.resize(batch);
      NDSS_RETURN_NOT_OK(
          reader_.ReadAt(meta.list_offset + index * sizeof(PostedWindow),
                         buffer.data(), batch * sizeof(PostedWindow)));
      if (io_bytes != nullptr) *io_bytes += batch * sizeof(PostedWindow);
      if (from_start) {
        crc = crc32c::Extend(crc, buffer.data(), batch * sizeof(PostedWindow));
      }
      for (const PostedWindow& window : buffer) {
        NDSS_RETURN_NOT_OK(
            CheckWindowInvariants(window, has_prev, prev_text, meta.key));
        has_prev = true;
        prev_text = window.text;
        if (window.text == text) {
          out->push_back(window);
        } else if (window.text > text) {
          return Status::OK();
        }
      }
      index += batch;
    }
    if (from_start && crc != crc32c::Unmask(meta.list_crc)) {
      return Status::Corruption("list checksum mismatch for key " +
                                std::to_string(meta.key));
    }
    return Status::OK();
  }

  // Compressed: each zone entry is a restart point's byte offset. Decode
  // segment by segment until texts pass the target. As in the raw path, a
  // probe covering the whole list verifies the list checksum; otherwise the
  // per-window invariants are the corruption guard.
  const uint32_t first_segment = segment;
  uint32_t crc = 0;
  bool has_prev = false;
  TextId prev_text = 0;
  std::vector<char> buffer;
  std::vector<PostedWindow> decoded;
  for (; segment < zone_count; ++segment) {
    // One segment is at most zone_step_ windows — the probe's checkpoint
    // granularity.
    NDSS_RETURN_NOT_OK(CheckQueryContext(ctx));
    const uint64_t begin = zone_position(segment);
    const uint64_t end = segment + 1 < zone_count
                             ? zone_position(segment + 1)
                             : meta.list_bytes;
    if (begin > end || end > meta.list_bytes) {
      return Status::Corruption("zone probe: bad restart offsets in list " +
                                std::to_string(meta.key));
    }
    const uint64_t windows_in_segment =
        std::min<uint64_t>(zone_step_,
                           meta.count - static_cast<uint64_t>(segment) *
                                            zone_step_);
    buffer.resize(end - begin);
    NDSS_RETURN_NOT_OK(
        reader_.ReadAt(meta.list_offset + begin, buffer.data(),
                       buffer.size()));
    if (io_bytes != nullptr) *io_bytes += buffer.size();
    if (first_segment == 0) {
      crc = crc32c::Extend(crc, buffer.data(), buffer.size());
    }
    decoded.clear();
    NDSS_RETURN_NOT_OK(DecodeRun(buffer.data(),
                                 buffer.data() + buffer.size(),
                                 windows_in_segment, &decoded));
    for (const PostedWindow& window : decoded) {
      NDSS_RETURN_NOT_OK(
          CheckWindowInvariants(window, has_prev, prev_text, meta.key));
      has_prev = true;
      prev_text = window.text;
      if (window.text == text) {
        out->push_back(window);
      } else if (window.text > text) {
        return Status::OK();
      }
    }
  }
  if (first_segment == 0 && crc != crc32c::Unmask(meta.list_crc)) {
    return Status::Corruption("list checksum mismatch for key " +
                              std::to_string(meta.key));
  }
  return Status::OK();
}

}  // namespace ndss
