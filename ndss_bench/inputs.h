// The benchmark's own seeded input generator. It deliberately shares no code
// with src/corpusgen, src/lm or ndss_corpusgen: a change to those modules
// must never change what the benchmark measures. Every generated token array
// is folded into an inputs digest so two commits can confirm they ran the
// same inputs.

#ifndef NDSS_BENCH_INPUTS_H_
#define NDSS_BENCH_INPUTS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "text/corpus.h"
#include "text/types.h"

namespace ndss_bench {

using ndss::Token;

/// SplitMix64 stream: tiny, fast, and fixed forever by this file.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n); n must be > 0.
  uint64_t Uniform(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

  /// Uniform in [lo, hi].
  uint64_t Between(uint64_t lo, uint64_t hi) {
    return lo + Uniform(hi - lo + 1);
  }

  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks [0, n) by inverse-CDF lookup.
class Zipf {
 public:
  Zipf(uint32_t n, double s);
  uint32_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Shape of a synthetic corpus: Zipf tokens over `vocab`, uniform text
/// lengths, and a share of texts carrying a noisy copy of a span of an
/// earlier text (planted near-duplicates).
struct CorpusShape {
  uint32_t texts = 4000;
  uint32_t vocab = 32000;
  double zipf_s = 1.0;
  uint32_t min_length = 100;
  uint32_t max_length = 1000;
  double plant_rate = 0.2;
  uint32_t min_plant = 50;
  uint32_t max_plant = 200;
  double noise = 0.05;
};

/// Generates a corpus. `donors`, when non-null, is where planted spans are
/// copied from (an ingest stream planting copies of preload texts);
/// otherwise spans come from earlier texts of the corpus itself.
ndss::Corpus GenerateCorpus(const CorpusShape& shape, Rng& rng,
                            const ndss::Corpus* donors = nullptr);

/// A probe: `length` tokens of a text with a `noise` share re-drawn from the
/// vocabulary. `text` / `begin` name its source (global id in `corpus`).
struct Probe {
  std::vector<Token> tokens;
  ndss::TextId text = 0;
  uint32_t begin = 0;
};

Probe MakeProbe(const ndss::Corpus& corpus, uint32_t length, double noise,
                const Zipf& vocab, Rng& rng);

/// A synthetic model output of `length` tokens of which roughly
/// `copied_share` is copied (with `noise`) from corpus spans and the rest is
/// fresh Zipf text — the shape of the paper's Section 5 evaluation input.
std::vector<Token> MakeModelOutput(const ndss::Corpus& corpus,
                                   uint32_t length, double copied_share,
                                   double noise, const Zipf& vocab, Rng& rng);

/// Order-sensitive 64-bit digest of token arrays.
class Digest {
 public:
  void Add(std::span<const Token> tokens);
  void Add(const ndss::Corpus& corpus);
  std::string Hex() const;

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

}  // namespace ndss_bench

#endif  // NDSS_BENCH_INPUTS_H_
