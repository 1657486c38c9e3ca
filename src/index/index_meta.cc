#include "index/index_meta.h"

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/file_io.h"
#include "common/logging.h"

namespace ndss {

namespace {
// v1 (no checksum) — recognized only for rejection.
constexpr uint64_t kMetaMagicV1 = 0x314154454d58444eULL;  // "NDXMETA1"-ish
// v2 (checksummed, no sketch-scheme field) — still loadable; implies
// sketch = kIndependent, the only scheme that existed then.
constexpr uint64_t kMetaMagicV2 = 0x324154454d58444eULL;  // "NDXMETA2"-ish
constexpr uint64_t kMetaMagic = 0x334154454d58444eULL;    // "NDXMETA3"-ish
// v2: magic u64, k u32, seed u64, t u32, num_texts u64, total_tokens u64,
// zone_step u32, zone_threshold u32, crc u32.
constexpr size_t kMetaSizeV2 = 8 + 4 + 8 + 4 + 8 + 8 + 4 + 4 + 4;
// v3 appends sketch_scheme u32 before the crc.
constexpr size_t kMetaSize = kMetaSizeV2 + 4;
}  // namespace

Status IndexMeta::Save(const std::string& dir) const {
  std::string data;
  data.reserve(kMetaSize);
  PutFixed64(&data, kMetaMagic);
  PutFixed32(&data, k);
  PutFixed64(&data, seed);
  PutFixed32(&data, t);
  PutFixed64(&data, num_texts);
  PutFixed64(&data, total_tokens);
  PutFixed32(&data, zone_step);
  PutFixed32(&data, zone_threshold);
  PutFixed32(&data, static_cast<uint32_t>(sketch));
  PutFixed32(&data, crc32c::Mask(crc32c::Value(data.data(), data.size())));
  return WriteStringToFileAtomic(dir + "/index.meta", data);
}

Result<IndexMeta> IndexMeta::Load(const std::string& dir) {
  // Read in place: moving the bytes out of the Result trips gcc's
  // -Wmaybe-uninitialized on the moved string's inline buffer.
  Result<std::string> read = ReadFileToString(dir + "/index.meta");
  if (!read.ok()) return read.status();
  const std::string& data = *read;
  if (data.size() >= 8 && DecodeFixed64(data.data()) == kMetaMagicV1) {
    return Status::InvalidArgument(
        "index meta in " + dir +
        " is format v1 (no checksum); rebuild the index with this version");
  }
  const bool is_v2 =
      data.size() >= 8 && DecodeFixed64(data.data()) == kMetaMagicV2;
  const size_t expected_size = is_v2 ? kMetaSizeV2 : kMetaSize;
  if (data.size() != expected_size) {
    return Status::Corruption("index meta has wrong size in " + dir);
  }
  if (!is_v2 && DecodeFixed64(data.data()) != kMetaMagic) {
    return Status::Corruption("bad index meta magic in " + dir);
  }
  const uint32_t stored_crc = DecodeFixed32(data.data() + expected_size - 4);
  if (crc32c::Value(data.data(), expected_size - 4) !=
      crc32c::Unmask(stored_crc)) {
    return Status::Corruption("index meta checksum mismatch in " + dir);
  }
  IndexMeta meta;
  const char* p = data.data() + 8;
  meta.k = DecodeFixed32(p);
  meta.seed = DecodeFixed64(p + 4);
  meta.t = DecodeFixed32(p + 12);
  meta.num_texts = DecodeFixed64(p + 16);
  meta.total_tokens = DecodeFixed64(p + 24);
  meta.zone_step = DecodeFixed32(p + 32);
  meta.zone_threshold = DecodeFixed32(p + 36);
  if (is_v2) {
    meta.sketch = SketchSchemeId::kIndependent;
  } else {
    const uint32_t raw_scheme = DecodeFixed32(p + 40);
    NDSS_RETURN_NOT_OK(
        ValidateSketchSchemeId(raw_scheme, dir + "/index.meta"));
    meta.sketch = static_cast<SketchSchemeId>(raw_scheme);
  }
  return meta;
}

std::string IndexMeta::InvertedIndexPath(const std::string& dir,
                                         uint32_t func) {
  return dir + "/inverted." + std::to_string(func) + ".ndx";
}

std::string IndexCommitMarkerPath(const std::string& dir) {
  return dir + "/CURRENT";
}

Status WriteIndexCommitMarker(const std::string& dir) {
  return WriteStringToFileAtomic(IndexCommitMarkerPath(dir), "index.meta\n");
}

Status CheckIndexCommitMarker(const std::string& dir) {
  if (FileExists(IndexCommitMarkerPath(dir))) return Status::OK();
  return Status::Corruption(
      "no CURRENT commit marker in " + dir +
      "; the index build did not complete — rebuild the index");
}

Status RemoveIndexCommitMarker(const std::string& dir) {
  return RemoveFile(IndexCommitMarkerPath(dir));
}

Status CleanupIndexOrphans(const std::string& dir, size_t* removed) {
  if (removed != nullptr) *removed = 0;
  auto entries = ListDirectory(dir);
  if (!entries.ok()) {
    // A directory that does not exist yet has no orphans.
    return entries.status().IsNotFound() ? Status::OK() : entries.status();
  }
  for (const std::string& name : *entries) {
    const bool is_tmp =
        name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
    const bool is_spill = name.rfind("spill.", 0) == 0;
    if (!is_tmp && !is_spill) continue;
    NDSS_LOG(kWarning) << "removing orphaned build file " << dir << "/"
                       << name;
    NDSS_RETURN_NOT_OK(RemoveFile(dir + "/" + name));
    if (removed != nullptr) ++*removed;
  }
  return Status::OK();
}

}  // namespace ndss
