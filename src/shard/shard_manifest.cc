#include "shard/shard_manifest.h"

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/file_io.h"
#include "index/index_merger.h"

namespace ndss {

namespace {
/// Original format: magic u64 + epoch u64 + num_shards u32 ... crc u32.
constexpr uint64_t kManifestMagicV1 = 0x32494e414d53444eULL;  // "NDSMANI2"-ish
/// Current format adds applied_seqno u64 after the epoch (WAL replay
/// watermark for streaming ingestion).
constexpr uint64_t kManifestMagicV2 = 0x33494e414d53444eULL;  // "NDSMANI3"-ish
constexpr size_t kFixedPrefixV1 = 8 + 8 + 4;
constexpr size_t kFixedPrefixV2 = 8 + 8 + 8 + 4;
constexpr size_t kCrcSize = 4;
/// Paths longer than this are certainly corruption, not configuration.
constexpr uint32_t kMaxPathLen = 4096;
}  // namespace

std::string ShardManifest::Path(const std::string& set_dir) {
  return set_dir + "/MANIFEST";
}

Status ShardManifest::Save(const std::string& set_dir) const {
  NDSS_RETURN_NOT_OK(ValidateShardDirs(shard_dirs));
  std::string data;
  PutFixed64(&data, kManifestMagicV2);
  PutFixed64(&data, epoch);
  PutFixed64(&data, applied_seqno);
  PutFixed32(&data, static_cast<uint32_t>(shard_dirs.size()));
  for (const std::string& dir : shard_dirs) {
    if (dir.size() > kMaxPathLen) {
      return Status::InvalidArgument("shard directory path too long: " + dir);
    }
    PutFixed32(&data, static_cast<uint32_t>(dir.size()));
    data.append(dir);
  }
  PutFixed32(&data, crc32c::Mask(crc32c::Value(data.data(), data.size())));
  NDSS_RETURN_NOT_OK(CreateDirectories(set_dir));
  return WriteStringToFileAtomic(Path(set_dir), data);
}

Result<ShardManifest> ShardManifest::Load(const std::string& set_dir) {
  const std::string path = Path(set_dir);
  // Read in place: moving the bytes out of the Result trips gcc's
  // -Wmaybe-uninitialized on the moved string's inline buffer.
  Result<std::string> read = ReadFileToString(path);
  if (!read.ok()) return read.status();
  const std::string& data = *read;
  if (data.size() < kFixedPrefixV1 + kCrcSize) {
    return Status::Corruption("shard manifest truncated: " + path);
  }
  const uint64_t magic = DecodeFixed64(data.data());
  if (magic != kManifestMagicV1 && magic != kManifestMagicV2) {
    return Status::Corruption("bad shard manifest magic in " + path);
  }
  const bool has_seqno = magic == kManifestMagicV2;
  if (has_seqno && data.size() < kFixedPrefixV2 + kCrcSize) {
    return Status::Corruption("shard manifest truncated: " + path);
  }
  const uint32_t stored_crc =
      DecodeFixed32(data.data() + data.size() - kCrcSize);
  if (crc32c::Value(data.data(), data.size() - kCrcSize) !=
      crc32c::Unmask(stored_crc)) {
    return Status::Corruption("shard manifest checksum mismatch in " + path);
  }
  ShardManifest manifest;
  manifest.epoch = DecodeFixed64(data.data() + 8);
  if (has_seqno) manifest.applied_seqno = DecodeFixed64(data.data() + 16);
  const size_t fixed_prefix = has_seqno ? kFixedPrefixV2 : kFixedPrefixV1;
  const uint32_t num_shards = DecodeFixed32(data.data() + fixed_prefix - 4);
  size_t pos = fixed_prefix;
  const size_t body_end = data.size() - kCrcSize;
  for (uint32_t i = 0; i < num_shards; ++i) {
    if (pos + 4 > body_end) {
      return Status::Corruption("shard manifest truncated entry in " + path);
    }
    const uint32_t len = DecodeFixed32(data.data() + pos);
    pos += 4;
    if (len > kMaxPathLen || pos + len > body_end) {
      return Status::Corruption("shard manifest entry overruns " + path);
    }
    manifest.shard_dirs.emplace_back(data.data() + pos, len);
    pos += len;
  }
  if (pos != body_end) {
    return Status::Corruption("shard manifest has trailing bytes in " + path);
  }
  // The checksum proves the bytes are what Save wrote; the list validation
  // guards against a manifest written by hand (or a future buggy writer).
  NDSS_RETURN_NOT_OK(ValidateShardDirs(manifest.shard_dirs));
  return manifest;
}

std::string ResolveShardDir(const std::string& set_dir,
                            const std::string& entry) {
  if (!entry.empty() && entry.front() == '/') return entry;
  return set_dir + "/" + entry;
}

Result<IndexMeta> LoadShardMeta(const std::string& shard_dir) {
  NDSS_RETURN_NOT_OK(CheckIndexCommitMarker(shard_dir));
  return IndexMeta::Load(shard_dir);
}

Status ValidateShardMetas(const std::vector<IndexMeta>& metas,
                          const std::vector<std::string>& shard_dirs) {
  uint64_t num_texts = 0;
  for (size_t i = 0; i < metas.size(); ++i) {
    if (!SameSketchFamily(metas[i], metas[0])) {
      return Status::InvalidArgument(
          "shard " + shard_dirs[i] +
          " was built with different (k, seed, t, sketch scheme) than " +
          shard_dirs[0] + "; a shard set must share one sketch family");
    }
    num_texts += metas[i].num_texts;
  }
  if (num_texts > 0xffffffffULL) {
    return Status::InvalidArgument("shard set exceeds 2^32 texts");
  }
  return Status::OK();
}

}  // namespace ndss
