#ifndef NDSS_SKETCH_SKETCH_GOLDEN_H_
#define NDSS_SKETCH_SKETCH_GOLDEN_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>

#include "sketch/sketch_scheme.h"
#include "text/types.h"

/// Golden vectors of the sketching format contract. SketchScheme::Hash
/// values decide which windows every index holds, so they are part of the
/// on-disk format: a change to a scheme's per-function seed chain, mask
/// chain, base hash or derivation must fail these vectors. Checked by
/// sketch_test and by bench_sketch's first gate, both through
/// CheckGoldenVectors(). The kIndependent values
/// were recorded from the original k-independent hash-family
/// implementation, so an index built before SketchScheme existed holds the
/// same lists when rebuilt.
namespace ndss {
namespace sketch_golden {

/// Tokens every golden hash row is evaluated at: the ends of the id space
/// and the sign-bit boundary.
inline constexpr Token kTokens[4] = {0, 1, 0x80000000u, 0xffffffffu};

/// Hash(func, kTokens[i]) of SketchScheme(scheme, k, seed). func >= 64
/// checks that the circulant rotation wraps.
struct HashRow {
  SketchSchemeId scheme;
  uint32_t k;
  uint64_t seed;
  uint32_t func;
  uint64_t hashes[4];
};

inline constexpr HashRow kHashRows[] = {
    {SketchSchemeId::kIndependent, 4, 0x7ULL, 3,
     {0x345621bb8991ea32ULL, 0x0810981c55e4728eULL, 0xd6cbe9d67e62cb34ULL,
      0x6b3364d9435ccc59ULL}},
    {SketchSchemeId::kIndependent, 70, 0x5eed5eed5eed5eedULL, 0,
     {0xed4a51688059ff90ULL, 0x4fca89e2a67080cdULL, 0x668beebbbdd74f3aULL,
      0xfdb42a0e599b1de9ULL}},
    {SketchSchemeId::kIndependent, 70, 0x5eed5eed5eed5eedULL, 63,
     {0xd9fc7f99027163e5ULL, 0xfc778be756ee2016ULL, 0xffe0e8adba6972c2ULL,
      0x0e77c97cfbc3dd70ULL}},
    {SketchSchemeId::kIndependent, 70, 0x5eed5eed5eed5eedULL, 64,
     {0x6aef7b9afce02320ULL, 0xf8cce4b56108dd75ULL, 0x75887ec4ab65e2f8ULL,
      0xa9bff833847cd0ccULL}},
    {SketchSchemeId::kIndependent, 70, 0x5eed5eed5eed5eedULL, 69,
     {0x51123a1b5e6ae79cULL, 0xd0ce58a24cf91847ULL, 0x28483b55d64bd670ULL,
      0x3ea74b4fc23ddc7eULL}},
    {SketchSchemeId::kCMinHash, 4, 0x7ULL, 3,
     {0x8974ad1d9a8704c7ULL, 0x7a485bb5e9b61e11ULL, 0xa510567647e25a71ULL,
      0x5c293beec2f6843bULL}},
    {SketchSchemeId::kCMinHash, 70, 0x5eed5eed5eed5eedULL, 0,
     {0x4f3390f1a8846203ULL, 0x2be27c1240b63f4cULL, 0x484507733c3f9c79ULL,
      0x3f91eec6f2000cf2ULL}},
    {SketchSchemeId::kCMinHash, 70, 0x5eed5eed5eed5eedULL, 63,
     {0x4a783df1a1b74edeULL, 0xf810cb8055ae6079ULL, 0x49c37630ebeab1e3ULL,
      0xf22902ea0cf579a6ULL}},
    {SketchSchemeId::kCMinHash, 70, 0x5eed5eed5eed5eedULL, 64,
     {0x088af9f8ba8af345ULL, 0x6c5b151b52b8ae0aULL, 0x0ffc6e7a2e310d3fULL,
      0x782887cfe00e9db4ULL}},
    {SketchSchemeId::kCMinHash, 70, 0x5eed5eed5eed5eedULL, 69,
     {0xd49770b89fad459dULL, 0x4eaaecc599e6ec71ULL, 0x3a4580ea08d28addULL,
      0xc0d8b653cf209bb3ULL}},
};

/// ComputeSketch(SketchScheme(scheme, kSketchK, kSketchSeed), kSequence):
/// covers repeated tokens and both ends of the token id space.
inline constexpr uint32_t kSketchK = 8;
inline constexpr uint64_t kSketchSeed = 7;
inline constexpr Token kSequence[10] = {5,           3, 0x80000000u, 9, 3,
                                        0xffffffffu, 0, 17,          5, 1000};

struct SketchRow {
  SketchSchemeId scheme;
  Token argmin_tokens[kSketchK];
  uint64_t min_hashes[kSketchK];
};

inline constexpr SketchRow kSketchRows[] = {
    {SketchSchemeId::kIndependent,
     {0x80000000u, 5, 3, 9, 0x80000000u, 3, 0, 5},
     {0x2b3e839332ca5a71ULL, 0x246a3aef9066a607ULL, 0x10f9a7b413a539ecULL,
      0x1ae5d4fbcc789744ULL, 0x2035aa2a0245d38dULL, 0x0fc91ce9e0826cb6ULL,
      0x028577e576f695dfULL, 0x143a98f920862203ULL}},
    {SketchSchemeId::kCMinHash,
     {9, 0, 0, 9, 0x80000000u, 1000, 17, 0},
     {0x28bdab816b550ffeULL, 0x11148e10e95ebab9ULL, 0x0ca96fb91edb0b2cULL,
      0x44003e6f3094533cULL, 0x0b8beebbf03e169bULL, 0x270a19a443dfc666ULL,
      0x2d8002ae60037cecULL, 0x1b5fd1c8d235509cULL}},
};

/// Evaluates every golden row. Returns "" when all match, otherwise a
/// description of the first mismatch.
inline std::string CheckGoldenVectors() {
  for (const HashRow& row : kHashRows) {
    const SketchScheme scheme(row.scheme, row.k, row.seed);
    for (size_t i = 0; i < std::size(kTokens); ++i) {
      if (scheme.Hash(row.func, kTokens[i]) != row.hashes[i]) {
        return std::string(SketchSchemeName(row.scheme)) + " k=" +
               std::to_string(row.k) + " f=" + std::to_string(row.func) +
               " token #" + std::to_string(i) + ": hash differs";
      }
    }
  }
  for (const SketchRow& row : kSketchRows) {
    const SketchScheme scheme(row.scheme, kSketchK, kSketchSeed);
    const MinHashSketch sketch =
        ComputeSketch(scheme, kSequence, std::size(kSequence));
    if (!std::equal(sketch.argmin_tokens.begin(), sketch.argmin_tokens.end(),
                    std::begin(row.argmin_tokens),
                    std::end(row.argmin_tokens)) ||
        !std::equal(sketch.min_hashes.begin(), sketch.min_hashes.end(),
                    std::begin(row.min_hashes), std::end(row.min_hashes))) {
      return std::string(SketchSchemeName(row.scheme)) + ": sketch differs";
    }
  }
  return "";
}

}  // namespace sketch_golden
}  // namespace ndss

#endif  // NDSS_SKETCH_SKETCH_GOLDEN_H_
