#ifndef NDSS_INDEX_VARINT_BLOCK_H_
#define NDSS_INDEX_VARINT_BLOCK_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/coding.h"
#include "index/posting.h"
#include "index/varint_word.h"

namespace ndss {

/// Upper bound on the encoded size of one posting window: four varints
/// (text delta, l, c - l, r - c), each at most kMaxVarint32Bytes.
inline constexpr size_t kWindowMaxEncodedBytes = 4 * kMaxVarint32Bytes;

/// Scalar DecodeWindowRun (see the dispatching wrapper below for the
/// contract). The hot loop decodes in chunks sized so that every varint of
/// the chunk is provably in bounds — one range check per chunk instead of
/// four per window — using the unrolled GetVarint32Unchecked; the last few
/// windows near `limit` fall back to the bounds-checked decoder. Kept as
/// the portable fallback of the word path (varint_word.h) and as a test
/// target in its own right.
inline const char* DecodeWindowRunScalar(const char* p, const char* limit,
                                         uint64_t max_windows,
                                         PostedWindow* out,
                                         uint64_t* decoded) {
  uint32_t prev_text = 0;
  uint64_t n = 0;
  while (n < max_windows && p < limit) {
    const uint64_t chunk =
        std::min<uint64_t>(max_windows - n,
                           static_cast<uint64_t>(limit - p) /
                               kWindowMaxEncodedBytes);
    if (chunk == 0) {
      // Tail: fewer than kWindowMaxEncodedBytes remain, so this window may
      // straddle the end of the buffer — decode it checked.
      if (!varint_internal::DecodeOneWindowChecked(&p, limit, &prev_text, &n,
                                                   out)) {
        return nullptr;
      }
      continue;
    }
    for (uint64_t i = 0; i < chunk; ++i) {
#if defined(__GNUC__) || defined(__clang__)
      // Pull upcoming encoded bytes into cache while this window decodes
      // (prefetching past `limit` is safe — prefetches never fault).
      __builtin_prefetch(p + 256);
#endif
      uint32_t text_field, l, c_delta, r_delta;
      p = GetVarint32Unchecked(p, &text_field);
      if (p != nullptr) p = GetVarint32Unchecked(p, &l);
      if (p != nullptr) p = GetVarint32Unchecked(p, &c_delta);
      if (p != nullptr) p = GetVarint32Unchecked(p, &r_delta);
      if (p == nullptr) return nullptr;  // overlong varint
      const uint32_t text = n == 0 ? text_field : prev_text + text_field;
      prev_text = text;
      out[n++] = PostedWindow{text, l, l + c_delta, l + c_delta + r_delta};
    }
  }
  *decoded = n;
  return p;
}

/// Signature shared by every window-run decoder.
using WindowDecodeFn = const char* (*)(const char* p, const char* limit,
                                       uint64_t max_windows,
                                       PostedWindow* out, uint64_t* decoded);

namespace varint_internal {

/// Picks the decoder DecodeWindowRun dispatches to, once per process.
///
/// Which path wins is data- and microarchitecture-dependent: the scalar
/// chunked decoder rides the branch predictor (fast on streams with steady
/// varint lengths), and the word-at-a-time pext decoder trades it for
/// branch-light extraction and a speculative pointer advance (pext is a
/// single cycle on some cores and microcoded on others). Rather than guess,
/// decode a small writer-faithful synthetic stream with both and keep the
/// faster — the cost is a few hundred microseconds, paid on the first
/// posting-list read. CPUs without BMI2 always get the scalar path.
inline WindowDecodeFn ChooseWindowDecode() {
#if defined(NDSS_VARINT_WORD)
  if (!WordWindowDecodeSupported()) return &DecodeWindowRunScalar;
  // Calibration stream: runs of 64 windows with posting-like magnitudes
  // (small text deltas, multi-byte l, small interval deltas), mirroring
  // what MakeEncodedList in bench_hot_path generates.
  constexpr uint64_t kWindows = 512;
  constexpr uint32_t kRun = 64;
  std::string enc;
  uint64_t x = 88172645463325252ull;
  auto next = [&x]() {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(x >> 33);
  };
  uint32_t text = 0;
  uint32_t prev_text = 0;
  for (uint64_t i = 0; i < kWindows; ++i) {
    if (next() % 4 == 0) text += next() % 40;
    PutVarint32(&enc, i % kRun == 0 ? text : text - prev_text);
    prev_text = text;
    PutVarint32(&enc, next() % (1u << 20));
    PutVarint32(&enc, next() % 64);
    PutVarint32(&enc, next() % 64);
  }
  PostedWindow out[kRun];
  const char* limit = enc.data() + enc.size();
  const auto decode_all = [&](WindowDecodeFn fn) {
    const char* p = enc.data();
    for (uint64_t i = 0; i < kWindows; i += kRun) {
      uint64_t decoded = 0;
      p = fn(p, limit, kRun, out, &decoded);
      if (p == nullptr) return false;
    }
    return true;
  };
  const auto best_of = [&](WindowDecodeFn fn) {
    double best = 1e30;
    for (int round = 0; round < 4; ++round) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < 16; ++rep) {
        if (!decode_all(fn)) return 1e30;
      }
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best,
                      std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
  };
  // Warm both candidates (instruction fetch, lookup tables), then race
  // them and keep the faster.
  decode_all(&DecodeWindowRunScalar);
  decode_all(&DecodeWindowRunWord);
  const double scalar_s = best_of(&DecodeWindowRunScalar);
  const double word_s = best_of(&DecodeWindowRunWord);
  return word_s < scalar_s ? &DecodeWindowRunWord : &DecodeWindowRunScalar;
#else
  return &DecodeWindowRunScalar;
#endif
}

}  // namespace varint_internal

/// The decoder DecodeWindowRun dispatches to (calibrated on first use).
inline WindowDecodeFn ActiveWindowDecode() {
  static const WindowDecodeFn fn = varint_internal::ChooseWindowDecode();
  return fn;
}

/// Name of the dispatched path, for bench reports and status endpoints.
inline const char* WindowDecodePathName() {
#if defined(NDSS_VARINT_WORD)
  return ActiveWindowDecode() == &DecodeWindowRunWord ? "word" : "scalar";
#else
  return "scalar";
#endif
}

/// Decodes one compressed posting run — up to `max_windows` windows from
/// [p, limit) into `out` (which must hold max_windows slots). Window 0 of
/// the run carries an absolute text id (a restart point); later windows
/// delta-encode it. Per-window fields are (text field, l, c - l, r - c).
///
/// Dispatches to the word-at-a-time pext decoder (varint_word.h) or the
/// scalar chunked decoder above — a runtime CPU check plus a one-time
/// calibration race (see ChooseWindowDecode). Both paths are bit-identical
/// to the
/// one-varint-at-a-time reference (reference::DecodeWindowRun): sets
/// `*decoded` to the number of complete windows and returns the position
/// after the last one (which is `limit` when the buffer runs out exactly at
/// a window boundary), or returns nullptr on a truncated or overlong
/// varint.
inline const char* DecodeWindowRun(const char* p, const char* limit,
                                   uint64_t max_windows, PostedWindow* out,
                                   uint64_t* decoded) {
  return ActiveWindowDecode()(p, limit, max_windows, out, decoded);
}

}  // namespace ndss

#endif  // NDSS_INDEX_VARINT_BLOCK_H_
