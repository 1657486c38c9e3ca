#ifndef NDSS_INDEX_INDEX_FORMAT_H_
#define NDSS_INDEX_INDEX_FORMAT_H_

#include <cstdint>

namespace ndss {
namespace index_format {

/// Magic numbers of the retired v1 (no checksums) and v2 (fixed 48-byte
/// directory entries) formats. Both are recognized and rejected with a
/// rebuild message instead of being misread. The magics differ only in the
/// version character at byte 7 of the little-endian encoding.
inline constexpr uint64_t kIndexMagicV1 = 0x3158444e53534447ULL;
inline constexpr uint64_t kIndexMagicV2 = 0x3258444e53534447ULL;

/// Magic number opening and closing every v3 inverted-index file.
inline constexpr uint64_t kIndexMagic = 0x3358444e53534447ULL;

/// Posting-list encoding.
enum PostingFormat : uint32_t {
  /// Fixed 16-byte PostedWindow records; zone entries are
  /// (text, window index).
  kFormatRaw = 0,
  /// Delta + varint encoding with restart points every zone_step windows
  /// (text absolute at restarts, delta otherwise; l, c-l, r-c varints);
  /// zone entries are (text, byte offset within the list).
  kFormatCompressed = 1,
};

/// Size of the fixed file header in bytes:
/// magic u64, func u32, zone_step u32, zone_threshold u32, format u32.
inline constexpr uint64_t kHeaderSize = 24;

/// Largest encoded size of one list, in either format: the in-memory
/// ListMeta holds list_bytes (and count) as u32. A raw list is therefore at
/// most 268,435,455 windows; a compressed window takes at least 4 bytes, so
/// a compressed list's count is below 2^30. The writer refuses a larger
/// list with ResourceExhausted.
inline constexpr uint64_t kMaxListBytes = 0xffffffffULL;

/// One directory entry is a varint stream, in list (file) order:
///
///   key delta  : zigzag varint64 of key - previous entry's key (the first
///                entry's base is 0); negative when lists were written out
///                of key order, as the external builder's partitions are
///   count      : varint32, windows in the list
///   list bytes : varint32, compressed format only (a raw list is always
///                16 * count bytes)
///   list crc   : fixed u32, masked CRC32C of the list's bytes
///
/// Nothing else is stored per list. Lists lie back to back from
/// kHeaderSize in directory order, so a list's offset is the previous
/// list's offset plus its byte length. A list is zoned exactly when
/// count > 0 and count >= zone_threshold; it then has
/// ceil(count / zone_step) zone entries, the zone section holds the zoned
/// lists' entries back to back in directory order (so zone offsets are
/// prefix sums as well), and the zone CRC table after the directory holds
/// one fixed u32 masked CRC32C per zoned list, also in directory order.
///
/// Size of the smallest possible directory entry (1-byte key delta and
/// count, 4-byte CRC), which bounds a footer's list count by the bytes it
/// claims.
inline constexpr uint64_t kMinDirectoryEntrySize = 6;

/// Size of one zone-CRC table entry in bytes.
inline constexpr uint64_t kZoneCrcSize = 4;

/// Size of the footer in bytes:
/// num_lists u64, num_windows u64, directory_offset u64, checksum u32,
/// pad u32, magic u64.
///
/// `checksum` is the masked CRC32C of header bytes ++ directory bytes ++
/// zone CRC table ++ the footer's first 24 bytes, so any corruption of the
/// file's metadata skeleton is detected at open.
inline constexpr uint64_t kFooterSize = 40;

/// Size of one zone-map entry in bytes (text u32 + position u32).
inline constexpr uint64_t kZoneEntrySize = 8;

}  // namespace index_format
}  // namespace ndss

#endif  // NDSS_INDEX_INDEX_FORMAT_H_
