#ifndef NDSS_INDEX_VARINT_WORD_H_
#define NDSS_INDEX_VARINT_WORD_H_

#include <cstdint>
#include <cstring>

#include "common/coding.h"
#include "index/posting.h"

/// Word-at-a-time posting-window decoder (see DecodeWindowRun in
/// varint_block.h for the format). The scalar decoder walks one varint at a
/// time, so every varint's length gates the address of the next — a serial
/// chain of byte-test branches whose throughput lives and dies by the branch
/// predictor. This path loads 8 encoded bytes at a window start, gathers
/// their terminator bits with one pext, and uses them to index precomputed
/// pext masks that extract all four varints of the window without per-byte
/// branches.
///
/// Output and failure behaviour are bit-identical to the scalar decoder and
/// to reference::DecodeWindowRun: windows not fully inside the 8-byte view
/// (fat or overlong varints, or the last bytes before `limit`) fall back to
/// the bounds-checked one-varint-at-a-time decoder, which supplies the exact
/// overlong/truncation failure behaviour.
///
/// Compiled on x86-64 GCC/Clang only (a function-level target attribute
/// keeps the rest of the TU buildable without -mbmi2); eligible at runtime
/// iff the CPU has BMI1+BMI2. Path selection between this and the scalar
/// decoder is done by a one-time calibration in varint_block.h.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NDSS_VARINT_WORD 1
#include <immintrin.h>
#endif

namespace ndss {

namespace varint_internal {

/// Bounds-checked decode of exactly one window at *p, shared by every slow
/// path of the word decoder and by the scalar decoder's tail. Returns false
/// on a truncated or overlong varint (matching GetVarint32 exactly).
inline bool DecodeOneWindowChecked(const char** p, const char* limit,
                                   uint32_t* prev_text, uint64_t* n,
                                   PostedWindow* out) {
  uint32_t text_field, l, c_delta, r_delta;
  const char* q = GetVarint32(*p, limit, &text_field);
  if (q != nullptr) q = GetVarint32(q, limit, &l);
  if (q != nullptr) q = GetVarint32(q, limit, &c_delta);
  if (q != nullptr) q = GetVarint32(q, limit, &r_delta);
  if (q == nullptr) return false;
  *p = q;
  // Window 0 of the run is a restart point (absolute text); prev_text
  // starts at 0 so the unconditional add covers it.
  const uint32_t text = *prev_text + text_field;
  *prev_text = text;
  out[(*n)++] = PostedWindow{text, l, l + c_delta, l + c_delta + r_delta};
  return true;
}

}  // namespace varint_internal

#if defined(NDSS_VARINT_WORD)

namespace word_internal {

/// pext masks and window lengths for the word-at-a-time decoder, indexed
/// by the 8 terminator bits of one 8-byte load at a window start. Entry m
/// describes a window whose four varints all terminate within those 8
/// bytes: field[m][v] selects varint v's data bits (0x7f per byte, so
/// _pext_u64 both gathers the 7-bit groups and strips the continuation
/// bits in one instruction), wlen[m] is the window's encoded size. wlen 0
/// means the window is not fully in view (fat varints push its 4th
/// terminator past byte 7, or a varint is overlong) and the caller must
/// decode it checked.
struct WordTables {
  /// One cache line per pattern: the four pext masks plus the window
  /// length in slot 4 (0 = fall back), so the hot loop reaches everything
  /// it needs off one shifted base address.
  struct alignas(64) Entry {
    uint64_t field[4];
    uint64_t wlen;
  };
  Entry entry[256];
};

inline const WordTables* GetWordTables() {
  static const WordTables* tables = [] {
    static WordTables t;
    for (uint32_t m = 0; m < 256; ++m) {
      WordTables::Entry& e = t.entry[m];
      e = WordTables::Entry{};
      uint32_t pos = 0;
      bool ok = true;
      uint64_t fields[4] = {0, 0, 0, 0};
      for (int v = 0; v < 4; ++v) {
        uint32_t end = pos;
        while (end < 8 && ((m >> end) & 1) == 0) ++end;
        // A 5-byte varint stays expressible: pext yields its 35 data bits
        // and the uint32 cast truncates exactly like GetVarint32. 6+ bytes
        // (overlong) can never fit 4 terminators in 8 bytes, so those
        // patterns all land here and fall back to the checked decoder.
        if (end >= 8) {
          ok = false;
          break;
        }
        for (uint32_t b = pos; b <= end; ++b) {
          fields[v] |= 0x7full << (8 * b);
        }
        pos = end + 1;
      }
      if (!ok) continue;
      for (int v = 0; v < 4; ++v) e.field[v] = fields[v];
      e.wlen = pos;
    }
    return &t;
  }();
  return tables;
}

}  // namespace word_internal

/// True when this build carries the word-at-a-time decoder and the CPU can
/// run it (BMI1/BMI2).
inline bool WordWindowDecodeSupported() {
  return __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2");
}

/// Word-at-a-time DecodeWindowRun: one 8-byte load covers a whole common
/// window (four varints), whose terminator bits — gathered with one pext —
/// index precomputed pext masks that extract all four values with no
/// per-byte branches. The serial load-address chain is broken by
/// speculation: posting streams are length-stable (the same field widths
/// repeat for long stretches), so the next window's address is
/// speculated as p + previous window's length and fixed up behind a
/// predicted branch, instead of waiting on the table load. Windows not
/// fully inside the 8-byte view fall back to the checked decoder, which
/// also supplies the exact overlong/truncation failure behaviour. Output
/// is bit-identical to the scalar and reference decoders.
__attribute__((target("bmi,bmi2"))) inline const char* DecodeWindowRunWord(
    const char* p, const char* limit, uint64_t max_windows, PostedWindow* out,
    uint64_t* decoded) {
  const word_internal::WordTables* tbl = word_internal::GetWordTables();
  constexpr uint64_t kTermBits = 0x8080808080808080ull;
  uint32_t prev_text = 0;
  PostedWindow* o = out;
  PostedWindow* const o_end = out + max_windows;
  // Speculative stride; any value works, the first window corrects it.
  // wlen is always in [4, 8], so the stride never exceeds 8.
  uint64_t guess = 6;
  // Paired fast loop: two windows per iteration. The second 8-byte load is
  // issued at p + guess before the first window's length is known — both
  // addresses are loop-invariant-predictable, so neither load waits on the
  // table lookup. A wrong guess (or a window needing the checked path)
  // commits only the first window and retrains the stride. Loop control,
  // bounds checks and the prefetch are paid once per pair.
  while (o + 2 <= o_end && static_cast<size_t>(limit - p) >= 16) {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p + 256);
#endif
    uint64_t w1, w2;
    std::memcpy(&w1, p, sizeof(w1));
    std::memcpy(&w2, p + guess, sizeof(w2));
    const uint64_t m1 = _pext_u64(~w1 & kTermBits, kTermBits);
    const uint64_t m2 = _pext_u64(~w2 & kTermBits, kTermBits);
    const word_internal::WordTables::Entry& e1 = tbl->entry[m1];
    const word_internal::WordTables::Entry& e2 = tbl->entry[m2];
    const uint64_t len1 = e1.wlen;
    const uint64_t len2 = e2.wlen;
    // Extract and store window 1 before branching (a fallback pattern has
    // all-zero masks, so the extraction is harmless garbage that the
    // checked decoder overwrites).
    const uint32_t text1 =
        prev_text + static_cast<uint32_t>(_pext_u64(w1, e1.field[0]));
    const uint32_t l1 = static_cast<uint32_t>(_pext_u64(w1, e1.field[1]));
    const uint32_t c1 =
        l1 + static_cast<uint32_t>(_pext_u64(w1, e1.field[2]));
    const uint32_t r1 =
        c1 + static_cast<uint32_t>(_pext_u64(w1, e1.field[3]));
    const uint64_t lo1 = text1 | (static_cast<uint64_t>(l1) << 32);
    const uint64_t hi1 = c1 | (static_cast<uint64_t>(r1) << 32);
    std::memcpy(o, &lo1, sizeof(lo1));
    std::memcpy(reinterpret_cast<char*>(o) + 8, &hi1, sizeof(hi1));
    if (len1 != guess || len2 == 0) {
      if (len1 == 0) {
        // Checked fallback on throwaway copies — the hot state must never
        // have its address taken (see the tail loop below).
        const char* q = p;
        uint32_t pt = prev_text;
        uint64_t nn = 0;
        if (!varint_internal::DecodeOneWindowChecked(&q, limit, &pt, &nn, o)) {
          return nullptr;
        }
        p = q;
        prev_text = pt;
        ++o;
        continue;
      }
      // w2 was loaded at the wrong address (or needs the checked path):
      // commit window 1 alone and retrain the stride.
      prev_text = text1;
      ++o;
      p += len1;
      guess = len1;
      continue;
    }
    const uint32_t text2 =
        text1 + static_cast<uint32_t>(_pext_u64(w2, e2.field[0]));
    const uint32_t l2 = static_cast<uint32_t>(_pext_u64(w2, e2.field[1]));
    const uint32_t c2 =
        l2 + static_cast<uint32_t>(_pext_u64(w2, e2.field[2]));
    const uint32_t r2 =
        c2 + static_cast<uint32_t>(_pext_u64(w2, e2.field[3]));
    const uint64_t lo2 = text2 | (static_cast<uint64_t>(l2) << 32);
    const uint64_t hi2 = c2 | (static_cast<uint64_t>(r2) << 32);
    std::memcpy(o + 1, &lo2, sizeof(lo2));
    std::memcpy(reinterpret_cast<char*>(o + 1) + 8, &hi2, sizeof(hi2));
    prev_text = text2;
    o += 2;
    // Advance speculatively by two strides — a sum of registers, so the
    // next iteration's loads never wait on this pair's table lookups — and
    // fix up behind a predicted branch when window 2 broke the pattern.
    p += guess << 1;
    if (len2 != guess) {
      p += len2;
      p -= guess;
      guess = len2;
    }
  }
  // Single-window tail: the last pair's worth of windows and short inputs.
  while (o < o_end && p < limit) {
    if (static_cast<size_t>(limit - p) < 8) {
      // Tail (or a window past the view, below): the hot loop's state must
      // never have its address taken — that would force its values onto
      // the stack and put a store-forward round trip into the pointer
      // chain — so the checked fallback works on throwaway copies.
      const char* q = p;
      uint32_t pt = prev_text;
      uint64_t nn = 0;
      if (!varint_internal::DecodeOneWindowChecked(&q, limit, &pt, &nn, o)) {
        return nullptr;
      }
      p = q;
      prev_text = pt;
      ++o;
      continue;
    }
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p + 256);
#endif
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    const uint64_t term = ~w & 0x8080808080808080ull;
    const uint64_t m = _pext_u64(term, 0x8080808080808080ull);
    const word_internal::WordTables::Entry& e = tbl->entry[m];
    const uint64_t len = e.wlen;
    if (len == 0) {
      // Window runs past the 8-byte view (or holds an overlong varint).
      const char* q = p;
      uint32_t pt = prev_text;
      uint64_t nn = 0;
      if (!varint_internal::DecodeOneWindowChecked(&q, limit, &pt, &nn, o)) {
        return nullptr;
      }
      p = q;
      prev_text = pt;
      ++o;
      continue;
    }
    const uint64_t tf = _pext_u64(w, e.field[0]);
    const uint64_t l = _pext_u64(w, e.field[1]);
    const uint64_t cd = _pext_u64(w, e.field[2]);
    const uint64_t rd = _pext_u64(w, e.field[3]);
    // Window 0 of the run restarts with an absolute text id; prev_text
    // starts at 0 so the unconditional add covers it. Stores go out as two
    // packed 64-bit writes ({text, l} and {c, r}) — cheaper than the
    // vector insert sequence the compiler picks for a struct store.
    const uint32_t text = prev_text + static_cast<uint32_t>(tf);
    prev_text = text;
    const uint32_t l32 = static_cast<uint32_t>(l);
    const uint32_t c = l32 + static_cast<uint32_t>(cd);
    const uint32_t r = c + static_cast<uint32_t>(rd);
    const uint64_t lo = text | (static_cast<uint64_t>(l32) << 32);
    const uint64_t hi = c | (static_cast<uint64_t>(r) << 32);
    std::memcpy(o, &lo, sizeof(lo));
    std::memcpy(reinterpret_cast<char*>(o) + 8, &hi, sizeof(hi));
    ++o;
    p += guess;
    if (len != guess) {
      p += len;
      p -= guess;
      guess = len;
    }
  }
  *decoded = static_cast<uint64_t>(o - out);
  return p;
}

#else  // !NDSS_VARINT_WORD

inline bool WordWindowDecodeSupported() { return false; }

#endif  // NDSS_VARINT_WORD

}  // namespace ndss

#endif  // NDSS_INDEX_VARINT_WORD_H_
