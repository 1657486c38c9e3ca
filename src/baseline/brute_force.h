#ifndef NDSS_BASELINE_BRUTE_FORCE_H_
#define NDSS_BASELINE_BRUTE_FORCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "sketch/sketch_scheme.h"
#include "text/corpus.h"
#include "text/types.h"

namespace ndss {

/// One sequence found by a baseline scan: tokens [begin, end] of `text`.
struct BaselineMatch {
  TextId text;
  uint32_t begin;
  uint32_t end;
  /// Min-hash collisions with the query (approx search) or unused (exact).
  uint32_t collisions;
  /// Exact distinct Jaccard similarity with the query (exact search) or the
  /// collision-based estimate (approx search).
  double similarity;
};

/// Brute-force evaluation of Definition 2: enumerates every sequence
/// T[i, j] with j - i + 1 >= t of every text and counts its min-hash
/// collisions with the query directly. The index-based search must return
/// exactly the sequences this returns (Theorem 2: sound and complete); used
/// as ground truth in tests and the recall experiment. O(N · L · k) per
/// text of length L — small inputs only. Works under either sketch scheme,
/// so it also validates the index-based search for C-MinHash indexes,
/// whose hash functions are circulant derivations rather than independent
/// mixes.
std::vector<BaselineMatch> BruteForceApproxSearch(
    const Corpus& corpus, const SketchScheme& scheme,
    std::span<const Token> query, double theta, uint32_t t);

/// Brute-force search under the *exact* distinct Jaccard similarity
/// (Definition 1). Incremental set maintenance makes it O(L^2) per text.
std::vector<BaselineMatch> BruteForceExactSearch(const Corpus& corpus,
                                                 std::span<const Token> query,
                                                 double theta, uint32_t t);

/// True iff `query` occurs verbatim (as a contiguous token run) anywhere in
/// the corpus. Rabin–Karp over every text; the "exact memorization"
/// baseline of the Section 5 comparison.
bool ContainsVerbatim(const Corpus& corpus, std::span<const Token> query);

/// Exact distinct Jaccard similarity between `query` and the span
/// [begin, end] of corpus text `text` — re-verification helper.
double SpanJaccard(const Corpus& corpus, TextId text, uint32_t begin,
                   uint32_t end, std::span<const Token> query);

}  // namespace ndss

#endif  // NDSS_BASELINE_BRUTE_FORCE_H_
