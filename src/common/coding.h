#ifndef NDSS_COMMON_CODING_H_
#define NDSS_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace ndss {

/// Fixed-width little-endian integer codecs used by all on-disk formats.
/// Little-endian is the native order on every platform we target; memcpy
/// keeps the accesses alignment-safe and lets the compiler emit single loads.

inline void EncodeFixed32(char* dst, uint32_t value) {
  std::memcpy(dst, &value, sizeof(value));
}

inline void EncodeFixed64(char* dst, uint64_t value) {
  std::memcpy(dst, &value, sizeof(value));
}

inline uint32_t DecodeFixed32(const char* src) {
  uint32_t value;
  std::memcpy(&value, src, sizeof(value));
  return value;
}

inline uint64_t DecodeFixed64(const char* src) {
  uint64_t value;
  std::memcpy(&value, src, sizeof(value));
  return value;
}

/// Appends the little-endian encoding of `value` to `dst`.
inline void PutFixed32(std::string* dst, uint32_t value) {
  char buf[sizeof(value)];
  EncodeFixed32(buf, value);
  dst->append(buf, sizeof(buf));
}

/// Appends the little-endian encoding of `value` to `dst`.
inline void PutFixed64(std::string* dst, uint64_t value) {
  char buf[sizeof(value)];
  EncodeFixed64(buf, value);
  dst->append(buf, sizeof(buf));
}

/// Maximum encoded size of a 32-bit / 64-bit varint.
inline constexpr size_t kMaxVarint32Bytes = 5;
inline constexpr size_t kMaxVarint64Bytes = 10;

/// Appends `value` as a LEB128 varint (7 bits per byte, high bit =
/// continuation). Used by the compressed posting-list format.
inline void PutVarint32(std::string* dst, uint32_t value) {
  while (value >= 0x80) {
    dst->push_back(static_cast<char>(value | 0x80));
    value >>= 7;
  }
  dst->push_back(static_cast<char>(value));
}

/// Appends `value` as a 64-bit varint.
inline void PutVarint64(std::string* dst, uint64_t value) {
  while (value >= 0x80) {
    dst->push_back(static_cast<char>(value | 0x80));
    value >>= 7;
  }
  dst->push_back(static_cast<char>(value));
}

/// Maps a signed value onto an unsigned one whose varint is short when the
/// magnitude is small: 0, -1, 1, -2, ... become 0, 1, 2, 3, ...
inline uint64_t ZigZagEncode64(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

/// Inverse of ZigZagEncode64.
inline int64_t ZigZagDecode64(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

/// Decodes a 32-bit varint from [p, limit). Returns the position after the
/// varint, or nullptr on truncated/overlong input.
inline const char* GetVarint32(const char* p, const char* limit,
                               uint32_t* value) {
  uint32_t result = 0;
  for (uint32_t shift = 0; shift <= 28 && p < limit; shift += 7) {
    const uint32_t byte = static_cast<uint8_t>(*p++);
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      result |= byte << shift;
      *value = result;
      return p;
    }
  }
  return nullptr;
}

/// Decodes a 32-bit varint WITHOUT bounds checks: the caller must guarantee
/// at least kMaxVarint32Bytes readable bytes at `p` (block decoders do this
/// with one range check per block instead of four per window). Unrolled
/// with a one-byte fast path — most posting deltas fit in one byte. Returns
/// nullptr on overlong input (a fifth byte with the continuation bit set),
/// exactly the inputs the checked decoder rejects when the buffer is ample;
/// high bits that overflow 32 bits in the fifth byte are truncated the same
/// way the checked decoder truncates them.
inline const char* GetVarint32Unchecked(const char* p, uint32_t* value) {
  uint32_t byte = static_cast<uint8_t>(*p++);
  if ((byte & 0x80) == 0) {
    *value = byte;
    return p;
  }
  uint32_t result = byte & 0x7f;
  byte = static_cast<uint8_t>(*p++);
  if ((byte & 0x80) == 0) {
    *value = result | (byte << 7);
    return p;
  }
  result |= (byte & 0x7f) << 7;
  byte = static_cast<uint8_t>(*p++);
  if ((byte & 0x80) == 0) {
    *value = result | (byte << 14);
    return p;
  }
  result |= (byte & 0x7f) << 14;
  byte = static_cast<uint8_t>(*p++);
  if ((byte & 0x80) == 0) {
    *value = result | (byte << 21);
    return p;
  }
  result |= (byte & 0x7f) << 21;
  byte = static_cast<uint8_t>(*p++);
  if ((byte & 0x80) != 0) return nullptr;  // overlong: > kMaxVarint32Bytes
  *value = result | (byte << 28);
  return p;
}

/// Decodes a 64-bit varint from [p, limit).
inline const char* GetVarint64(const char* p, const char* limit,
                               uint64_t* value) {
  uint64_t result = 0;
  for (uint32_t shift = 0; shift <= 63 && p < limit; shift += 7) {
    const uint64_t byte = static_cast<uint8_t>(*p++);
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      result |= byte << shift;
      *value = result;
      return p;
    }
  }
  return nullptr;
}

}  // namespace ndss

#endif  // NDSS_COMMON_CODING_H_
