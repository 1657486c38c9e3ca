#ifndef NDSS_COMMON_CRC32C_H_
#define NDSS_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace ndss {
namespace crc32c {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum used by every checksummed on-disk format. Software slice-by-8
/// implementation: eight table lookups per 8 input bytes.

/// Returns the CRC of the concatenation of A and `data[0, n)`, where
/// `crc` is the CRC of A.
uint32_t Extend(uint32_t crc, const void* data, size_t n);

/// CRC of `data[0, n)`.
inline uint32_t Value(const void* data, size_t n) { return Extend(0, data, n); }

inline constexpr uint32_t kMaskDelta = 0xa282ead8u;

/// Masked CRC, as stored on disk. Storing the CRC of a region that itself
/// contains embedded CRCs is error-prone (a CRC of data including its own
/// CRC has pathological properties); every format stores masked values.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

/// Inverse of Mask.
inline uint32_t Unmask(uint32_t masked) {
  const uint32_t rot = masked - kMaskDelta;
  return (rot >> 17) | (rot << 15);
}

}  // namespace crc32c
}  // namespace ndss

#endif  // NDSS_COMMON_CRC32C_H_
