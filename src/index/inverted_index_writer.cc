#include "index/inverted_index_writer.h"

#include <algorithm>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/logging.h"

namespace ndss {

namespace idx = index_format;

InvertedIndexWriter::InvertedIndexWriter(FileWriter writer,
                                         std::string final_path,
                                         std::string header_bytes,
                                         uint32_t zone_step,
                                         uint32_t zone_threshold,
                                         idx::PostingFormat format)
    : writer_(std::move(writer)),
      final_path_(std::move(final_path)),
      header_bytes_(std::move(header_bytes)),
      zone_step_(zone_step),
      zone_threshold_(zone_threshold),
      format_(format) {}

Result<InvertedIndexWriter> InvertedIndexWriter::Create(
    const std::string& path, uint32_t func, uint32_t zone_step,
    uint32_t zone_threshold, idx::PostingFormat format) {
  if (zone_step == 0) {
    return Status::InvalidArgument("zone_step must be positive");
  }
  NDSS_ASSIGN_OR_RETURN(FileWriter writer, FileWriter::Open(path + ".tmp"));
  std::string header;
  PutFixed64(&header, idx::kIndexMagic);
  PutFixed32(&header, func);
  PutFixed32(&header, zone_step);
  PutFixed32(&header, zone_threshold);
  PutFixed32(&header, static_cast<uint32_t>(format));
  NDSS_RETURN_NOT_OK(writer.Append(header));
  return InvertedIndexWriter(std::move(writer), path, std::move(header),
                             zone_step, zone_threshold, format);
}

Status InvertedIndexWriter::FlushCurrentList() {
  if (!list_open_) return Status::OK();
  const uint64_t list_bytes = writer_.bytes_written() - current_offset_;
  // A compressed window takes at least 4 bytes and a raw one 16, so the
  // byte bound also keeps count within its u32.
  if (list_bytes > idx::kMaxListBytes) {
    return Status::ResourceExhausted(
        "inverted list for key " + std::to_string(current_key_) +
        " exceeds 4 GiB of encoded bytes; raise t or split the corpus");
  }
  DirectoryEntry entry;
  entry.key = current_key_;
  entry.count = static_cast<uint32_t>(current_count_);
  entry.list_bytes = static_cast<uint32_t>(list_bytes);
  entry.list_crc = crc32c::Mask(current_crc_);
  if (current_count_ > 0 && current_count_ >= zone_threshold_) {
    const size_t zone_begin = zone_bytes_.size();
    for (const auto& [text, position] : current_zones_) {
      PutFixed32(&zone_bytes_, text);
      PutFixed32(&zone_bytes_, position);
    }
    zone_crcs_.push_back(crc32c::Mask(crc32c::Value(
        zone_bytes_.data() + zone_begin, zone_bytes_.size() - zone_begin)));
  }
  directory_.push_back(entry);
  list_open_ = false;
  current_zones_.clear();
  return Status::OK();
}

Status InvertedIndexWriter::BeginList(Token key) {
  if (finished_) return Status::Internal("writer already finished");
  NDSS_RETURN_NOT_OK(FlushCurrentList());
  list_open_ = true;
  current_key_ = key;
  current_count_ = 0;
  current_offset_ = writer_.bytes_written();
  current_crc_ = 0;
  prev_text_ = 0;
  return Status::OK();
}

Status InvertedIndexWriter::AddWindow(const PostedWindow& window) {
  return AddWindows(&window, 1);
}

Status InvertedIndexWriter::AddWindows(const PostedWindow* windows,
                                       size_t count) {
  if (!list_open_) return Status::Internal("no open list");
  if (format_ == idx::kFormatRaw) {
    for (size_t i = 0; i < count; ++i) {
      if (current_count_ % zone_step_ == 0) {
        current_zones_.push_back(
            {windows[i].text, static_cast<uint32_t>(current_count_)});
      }
      ++current_count_;
    }
    NDSS_RETURN_NOT_OK(writer_.Append(windows, count * sizeof(PostedWindow)));
    current_crc_ =
        crc32c::Extend(current_crc_, windows, count * sizeof(PostedWindow));
  } else {
    encode_buffer_.clear();
    const uint64_t base = writer_.bytes_written() - current_offset_;
    for (size_t i = 0; i < count; ++i) {
      const PostedWindow& w = windows[i];
      NDSS_CHECK(w.l <= w.c && w.c <= w.r) << "malformed window";
      const bool restart = current_count_ % zone_step_ == 0;
      if (restart) {
        // Restart point: absolute text id; decoding can begin here.
        current_zones_.push_back(
            {w.text, static_cast<uint32_t>(base + encode_buffer_.size())});
        PutVarint32(&encode_buffer_, w.text);
      } else {
        NDSS_CHECK(w.text >= prev_text_) << "list not sorted by text";
        PutVarint32(&encode_buffer_, w.text - prev_text_);
      }
      PutVarint32(&encode_buffer_, w.l);
      PutVarint32(&encode_buffer_, w.c - w.l);
      PutVarint32(&encode_buffer_, w.r - w.c);
      prev_text_ = w.text;
      ++current_count_;
    }
    NDSS_RETURN_NOT_OK(writer_.Append(encode_buffer_));
    current_crc_ = crc32c::Extend(current_crc_, encode_buffer_.data(),
                                  encode_buffer_.size());
  }
  num_windows_ += count;
  return Status::OK();
}

Status InvertedIndexWriter::WriteSorted(const KeyedWindow* windows,
                                        size_t count) {
  size_t i = 0;
  std::vector<PostedWindow> run;
  while (i < count) {
    const Token key = windows[i].key;
    size_t j = i;
    run.clear();
    while (j < count && windows[j].key == key) {
      run.push_back(windows[j].ToPosted());
      ++j;
    }
    NDSS_RETURN_NOT_OK(BeginList(key));
    NDSS_RETURN_NOT_OK(AddWindows(run.data(), run.size()));
    i = j;
  }
  return Status::OK();
}

Status InvertedIndexWriter::Finish() {
  if (finished_) return Status::OK();
  NDSS_RETURN_NOT_OK(FlushCurrentList());
  finished_ = true;
  // Lists may be appended in any key order (the out-of-core builder emits
  // hash partitions), and the directory keeps that order so offsets stay
  // prefix sums; the reader sorts it at open. Keys must still be distinct.
  std::vector<Token> keys(directory_.size());
  for (size_t i = 0; i < directory_.size(); ++i) keys[i] = directory_[i].key;
  std::sort(keys.begin(), keys.end());
  const auto duplicate = std::adjacent_find(keys.begin(), keys.end());
  if (duplicate != keys.end()) {
    return Status::InvalidArgument("duplicate inverted-list key " +
                                   std::to_string(*duplicate));
  }
  // Zone section, in list order: zone offsets are prefix sums of the zoned
  // lists' entry counts.
  NDSS_RETURN_NOT_OK(writer_.Append(zone_bytes_));
  // Directory (varint entries in list order), then the zone CRC table.
  const uint64_t directory_offset = writer_.bytes_written();
  std::string metadata;
  metadata.reserve(directory_.size() * 8 + zone_crcs_.size() * 4);
  Token previous_key = 0;
  for (const DirectoryEntry& entry : directory_) {
    const int64_t delta = static_cast<int64_t>(entry.key) -
                          static_cast<int64_t>(previous_key);
    PutVarint64(&metadata, ZigZagEncode64(delta));
    previous_key = entry.key;
    PutVarint32(&metadata, entry.count);
    if (format_ == idx::kFormatCompressed) {
      PutVarint32(&metadata, entry.list_bytes);
    }
    PutFixed32(&metadata, entry.list_crc);
  }
  for (uint32_t zone_crc : zone_crcs_) PutFixed32(&metadata, zone_crc);
  NDSS_RETURN_NOT_OK(writer_.Append(metadata));
  // Footer: the checksum covers the header, the directory and zone CRCs,
  // and the footer's own prefix, so a flipped bit in any metadata region
  // fails the open.
  std::string footer;
  PutFixed64(&footer, directory_.size());
  PutFixed64(&footer, num_windows_);
  PutFixed64(&footer, directory_offset);
  uint32_t crc = crc32c::Value(header_bytes_.data(), header_bytes_.size());
  crc = crc32c::Extend(crc, metadata.data(), metadata.size());
  crc = crc32c::Extend(crc, footer.data(), footer.size());
  PutFixed32(&footer, crc32c::Mask(crc));
  PutFixed32(&footer, 0);  // pad
  PutFixed64(&footer, idx::kIndexMagic);
  NDSS_RETURN_NOT_OK(writer_.Append(footer));
  // Publish: fsync the temp file, then atomically rename onto the final
  // path. A crash before the rename leaves only the temp file, which open
  // never considers.
  NDSS_RETURN_NOT_OK(writer_.Sync());
  NDSS_RETURN_NOT_OK(writer_.Close());
  return RenameFile(final_path_ + ".tmp", final_path_);
}

}  // namespace ndss
