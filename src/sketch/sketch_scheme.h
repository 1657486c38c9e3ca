#ifndef NDSS_SKETCH_SKETCH_SCHEME_H_
#define NDSS_SKETCH_SKETCH_SCHEME_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "text/corpus.h"
#include "text/types.h"

namespace ndss {

/// Which min-hash sketching scheme an index was built with. The numeric
/// values are part of the on-disk format (IndexMeta v3 stores the raw id),
/// so they must never be renumbered; new schemes append.
enum class SketchSchemeId : uint32_t {
  /// k independent SplitMix64 functions (the paper's family): every token
  /// is hashed k times, once per function.
  kIndependent = 0,

  /// C-MinHash-style circulant scheme (Li & Li, "C-MinHash: Rigorously
  /// Reducing K Permutations to Two" / "... Practically Reducing Two
  /// Permutations to Just One"): one permutation σ is applied once per
  /// token, and the k functions are circulant re-uses of that single
  /// evaluation. Here σ(x) = SplitMix64(seed ^ (x + 1)) maps into the
  /// 64-bit domain, and the circulant shift of function f is realized as a
  /// bit-rotation of σ(x) by f mod 64 positions followed by XOR with a
  /// per-function 64-bit mask derived from the seed — both bijections of
  /// the 64-bit value domain, so each function still behaves as a random
  /// permutation of the vocabulary, but deriving a function's hash from the
  /// shared base value costs two ALU ops instead of a full SplitMix64 mix.
  /// (The papers shift the permutation over the vocabulary domain [D],
  /// which needs a materialized permutation table; rotating the hash bits
  /// keeps the scheme table-free and streaming-friendly. The estimator
  /// quality claim — variance no worse than k-independent MinHash — is
  /// checked empirically by sketch_test and bench_sketch.)
  kCMinHash = 1,
};

/// Number of defined scheme ids (valid raw ids are [0, kNumSketchSchemes)).
inline constexpr uint32_t kNumSketchSchemes = 2;

/// Canonical lowercase name of a scheme ("kindependent", "cminhash").
const char* SketchSchemeName(SketchSchemeId id);

/// Parses a scheme name as accepted by the --sketch tool flags. Returns
/// InvalidArgument (listing the valid names) for anything else.
Result<SketchSchemeId> ParseSketchSchemeName(const std::string& name);

/// OK when `raw` is a defined scheme id; loud Corruption naming `context`
/// (e.g. the meta file path) otherwise, so a v3 header carrying an unknown
/// scheme is rejected instead of silently misread as some default.
Status ValidateSketchSchemeId(uint32_t raw, const std::string& context);

/// A family of k min-hash functions under one of the pluggable sketching
/// schemes. Deterministic given (id, k, seed): an index built offline and a
/// query computed later agree on every hash value, and the same (scheme,
/// seed) always produces bit-identical indexes across the build, ingest,
/// merge, and shard paths.
///
/// Every function decomposes as Hash(f, x) == HashFromBase(f, BaseHash(x)).
/// For kIndependent the base is the token itself (the full mix happens per
/// function). For kCMinHash the base is the single σ evaluation, and
/// HashFromBase is the cheap circulant derivation; callers that evaluate
/// many functions over the same tokens (index builds, sketch computation)
/// compute the base row once and re-use it k times.
class SketchScheme {
 public:
  /// Creates the k functions derived from `seed`. `k` must be >= 1.
  SketchScheme(SketchSchemeId id, uint32_t k, uint64_t seed);

  SketchSchemeId id() const { return id_; }
  uint32_t k() const { return k_; }
  uint64_t seed() const { return seed_; }

  /// Scheme-specific shared base value of `token` (one evaluation).
  uint64_t BaseHash(Token token) const {
    if (id_ == SketchSchemeId::kIndependent) {
      return static_cast<uint64_t>(token);
    }
    return SplitMix64(seed_ ^ (static_cast<uint64_t>(token) + 1));
  }

  /// Hash under function `func` given the token's base value.
  uint64_t HashFromBase(uint32_t func, uint64_t base) const {
    if (id_ == SketchSchemeId::kIndependent) {
      return SplitMix64(per_func_[func] ^ (base + 1));
    }
    return Rotl64(base, static_cast<int>(func & 63)) ^ per_func_[func];
  }

  /// Hash of `token` under function `func`. `func` must be < k(). The
  /// values of both schemes are part of the on-disk format (indexes written
  /// before schemes existed are kIndependent) and are pinned by
  /// sketch/sketch_golden.h.
  uint64_t Hash(uint32_t func, Token token) const {
    return HashFromBase(func, BaseHash(token));
  }

  /// Fills out[i] = BaseHash(tokens[i]) — the "one permutation" pass.
  void FillBaseRow(const Token* tokens, size_t n, uint64_t* out) const;

  /// Fills out[i] = HashFromBase(func, base[i]) — for kCMinHash a tight
  /// rotate+xor loop, roughly an order of magnitude cheaper per element
  /// than a SplitMix64 evaluation.
  void FillHashRowFromBase(uint32_t func, const uint64_t* base, size_t n,
                           uint64_t* out) const;

  /// Fills out[i] = Hash(func, tokens[i]) without a materialized base row.
  void FillHashRow(uint32_t func, const Token* tokens, size_t n,
                   uint64_t* out) const;

 private:
  static uint64_t Rotl64(uint64_t x, int r) {
    return r == 0 ? x : (x << r) | (x >> (64 - r));
  }

  SketchSchemeId id_;
  uint32_t k_;
  uint64_t seed_;
  /// kIndependent: the per-function seeds, chained as x = SplitMix64(x + i)
  /// so function f is identical across every k — the property degraded
  /// k'-of-k search relies on.
  /// kCMinHash: the per-function XOR masks. Either way this derivation is
  /// part of the on-disk format contract: changing it is a format change.
  std::vector<uint64_t> per_func_;
};

/// The k-mins sketch of a sequence: for each hash function, the token of the
/// sequence achieving the minimum hash value (ties broken toward the smaller
/// token id, which is deterministic and consistent between index and query
/// sides because equal hash values imply equal tokens w.h.p.).
struct MinHashSketch {
  /// argmin_tokens[i] is the arg-min token under hash function i.
  std::vector<Token> argmin_tokens;

  /// min_hashes[i] is the corresponding minimum hash value.
  std::vector<uint64_t> min_hashes;
};

/// Computes the k-mins sketch of `tokens` under `scheme`. For kIndependent
/// each function hashes the tokens directly; for kCMinHash the base row is
/// evaluated once and the k minima are found over cheap circulant
/// derivations. `n` must be >= 1. `base_scratch`, when
/// non-null, is reused for the base row to avoid a per-call allocation.
MinHashSketch ComputeSketch(const SketchScheme& scheme, const Token* tokens,
                            size_t n,
                            std::vector<uint64_t>* base_scratch = nullptr);

/// Estimated Jaccard similarity from two sketches of the same scheme:
/// the fraction of functions on which the min-hash values collide.
double EstimateJaccard(const MinHashSketch& a, const MinHashSketch& b);

/// Exact distinct Jaccard similarity of two token sequences (the measure the
/// sketch estimates): |distinct(a) ∩ distinct(b)| / |distinct(a) ∪
/// distinct(b)|. Used by tests and the optional re-verification pass.
double ExactDistinctJaccard(const Token* a, size_t na, const Token* b,
                            size_t nb);

/// Exact multi-set Jaccard similarity, where the i-th occurrence of a token
/// only matches the i-th occurrence in the other sequence (Section 3.1).
double ExactMultisetJaccard(const Token* a, size_t na, const Token* b,
                            size_t nb);

/// Materialized base-hash rows for a whole corpus: one uint64 per token,
/// computed once and re-used across all k functions by the index builders
/// (the C-MinHash speedup: k window-generation passes share one hashing
/// pass). For kIndependent nothing is materialized (the base is the token
/// id itself) and enabled() is false. Costs 8 bytes per corpus token while
/// alive, so the external build scopes one to a streamed batch.
class CorpusBaseRows {
 public:
  /// Empty, disabled rows (what kIndependent uses).
  CorpusBaseRows() = default;

  /// Computes the rows for every text of `corpus`, in parallel across texts
  /// when num_threads > 1. Returns a disabled object for kIndependent.
  static CorpusBaseRows Build(const SketchScheme& scheme, const Corpus& corpus,
                              size_t num_threads);

  bool enabled() const { return !offsets_.empty(); }

  /// Base row of text `index` (parallel to corpus.text(index)). Must not be
  /// called when !enabled().
  std::span<const uint64_t> row(size_t index) const {
    return std::span<const uint64_t>(rows_.data() + offsets_[index],
                                     offsets_[index + 1] - offsets_[index]);
  }

 private:
  std::vector<uint64_t> rows_;     ///< rows of every text, concatenated
  std::vector<size_t> offsets_;    ///< num_texts + 1 row boundaries
};

}  // namespace ndss

#endif  // NDSS_SKETCH_SKETCH_SCHEME_H_
