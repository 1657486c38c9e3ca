#include "sketch/sketch_scheme.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace ndss {

const char* SketchSchemeName(SketchSchemeId id) {
  switch (id) {
    case SketchSchemeId::kIndependent:
      return "kindependent";
    case SketchSchemeId::kCMinHash:
      return "cminhash";
  }
  return "unknown";
}

Result<SketchSchemeId> ParseSketchSchemeName(const std::string& name) {
  if (name == "kindependent") return SketchSchemeId::kIndependent;
  if (name == "cminhash") return SketchSchemeId::kCMinHash;
  return Status::InvalidArgument(
      "unknown sketch scheme \"" + name +
      "\" (valid: kindependent, cminhash)");
}

Status ValidateSketchSchemeId(uint32_t raw, const std::string& context) {
  if (raw < kNumSketchSchemes) return Status::OK();
  return Status::Corruption("unknown sketch scheme id " + std::to_string(raw) +
                            " in " + context +
                            " (index written by a newer version?)");
}

SketchScheme::SketchScheme(SketchSchemeId id, uint32_t k, uint64_t seed)
    : id_(id), k_(k), seed_(seed) {
  NDSS_CHECK(k >= 1) << "sketch scheme needs at least one function";
  per_func_.reserve(k);
  if (id_ == SketchSchemeId::kIndependent) {
    // Chained seeds: function f's seed depends only on (seed, f), so a
    // (k', seed) family is a prefix of every (k >= k', seed) family.
    uint64_t x = seed;
    for (uint32_t i = 0; i < k; ++i) {
      x = SplitMix64(x + i);
      per_func_.push_back(x);
    }
  } else {
    // Per-function XOR masks: distinct from the seed chain above (offset by
    // a large odd constant) so cminhash and kindependent never share
    // per-function constants even at the same seed. Mask 0 is forced
    // non-degenerate only by the mix itself; any 64-bit value is a valid
    // mask since XOR is a bijection either way.
    uint64_t x = seed ^ 0x9e3779b97f4a7c15ULL;
    for (uint32_t i = 0; i < k; ++i) {
      x = SplitMix64(x + i);
      per_func_.push_back(x);
    }
  }
}

void SketchScheme::FillBaseRow(const Token* tokens, size_t n,
                               uint64_t* out) const {
  if (id_ == SketchSchemeId::kIndependent) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<uint64_t>(tokens[i]);
    }
    return;
  }
  const uint64_t seed = seed_;
  for (size_t i = 0; i < n; ++i) {
    out[i] = SplitMix64(seed ^ (static_cast<uint64_t>(tokens[i]) + 1));
  }
}

void SketchScheme::FillHashRowFromBase(uint32_t func, const uint64_t* base,
                                       size_t n, uint64_t* out) const {
  if (id_ == SketchSchemeId::kIndependent) {
    const uint64_t fseed = per_func_[func];
    for (size_t i = 0; i < n; ++i) {
      out[i] = SplitMix64(fseed ^ (base[i] + 1));
    }
    return;
  }
  const int r = static_cast<int>(func & 63);
  const uint64_t mask = per_func_[func];
  if (r == 0) {
    for (size_t i = 0; i < n; ++i) out[i] = base[i] ^ mask;
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = ((base[i] << r) | (base[i] >> (64 - r))) ^ mask;
  }
}

void SketchScheme::FillHashRow(uint32_t func, const Token* tokens, size_t n,
                               uint64_t* out) const {
  for (size_t i = 0; i < n; ++i) out[i] = Hash(func, tokens[i]);
}

MinHashSketch ComputeSketch(const SketchScheme& scheme, const Token* tokens,
                            size_t n, std::vector<uint64_t>* base_scratch) {
  NDSS_CHECK(n >= 1) << "cannot sketch an empty sequence";
  MinHashSketch sketch;
  const uint32_t k = scheme.k();
  sketch.argmin_tokens.resize(k);
  sketch.min_hashes.resize(k);
  if (scheme.id() == SketchSchemeId::kIndependent) {
    // One full hash per (function, token); ties break toward the smaller
    // token.
    for (uint32_t f = 0; f < k; ++f) {
      uint64_t best_hash = scheme.Hash(f, tokens[0]);
      Token best_token = tokens[0];
      for (size_t i = 1; i < n; ++i) {
        const uint64_t h = scheme.Hash(f, tokens[i]);
        if (h < best_hash || (h == best_hash && tokens[i] < best_token)) {
          best_hash = h;
          best_token = tokens[i];
        }
      }
      sketch.argmin_tokens[f] = best_token;
      sketch.min_hashes[f] = best_hash;
    }
    return sketch;
  }
  // cminhash: one σ pass over the tokens, then k cheap circulant scans over
  // the materialized base row.
  std::vector<uint64_t> local;
  std::vector<uint64_t>& base = base_scratch != nullptr ? *base_scratch : local;
  base.resize(n);
  scheme.FillBaseRow(tokens, n, base.data());
  for (uint32_t f = 0; f < k; ++f) {
    uint64_t best_hash = scheme.HashFromBase(f, base[0]);
    Token best_token = tokens[0];
    for (size_t i = 1; i < n; ++i) {
      const uint64_t h = scheme.HashFromBase(f, base[i]);
      if (h < best_hash || (h == best_hash && tokens[i] < best_token)) {
        best_hash = h;
        best_token = tokens[i];
      }
    }
    sketch.argmin_tokens[f] = best_token;
    sketch.min_hashes[f] = best_hash;
  }
  return sketch;
}

double EstimateJaccard(const MinHashSketch& a, const MinHashSketch& b) {
  NDSS_CHECK(a.min_hashes.size() == b.min_hashes.size())
      << "sketches from different families";
  if (a.min_hashes.empty()) return 0.0;
  size_t collisions = 0;
  for (size_t i = 0; i < a.min_hashes.size(); ++i) {
    if (a.min_hashes[i] == b.min_hashes[i]) ++collisions;
  }
  return static_cast<double>(collisions) /
         static_cast<double>(a.min_hashes.size());
}

double ExactDistinctJaccard(const Token* a, size_t na, const Token* b,
                            size_t nb) {
  if (na == 0 && nb == 0) return 1.0;
  std::unordered_set<Token> set_a(a, a + na);
  std::unordered_set<Token> set_b(b, b + nb);
  size_t intersection = 0;
  for (Token token : set_a) {
    if (set_b.count(token) != 0) ++intersection;
  }
  const size_t union_size = set_a.size() + set_b.size() - intersection;
  if (union_size == 0) return 1.0;
  return static_cast<double>(intersection) / static_cast<double>(union_size);
}

double ExactMultisetJaccard(const Token* a, size_t na, const Token* b,
                            size_t nb) {
  if (na == 0 && nb == 0) return 1.0;
  std::unordered_map<Token, size_t> counts_a;
  for (size_t i = 0; i < na; ++i) ++counts_a[a[i]];
  std::unordered_map<Token, size_t> counts_b;
  for (size_t i = 0; i < nb; ++i) ++counts_b[b[i]];
  size_t intersection = 0;
  for (const auto& [token, count] : counts_a) {
    auto it = counts_b.find(token);
    if (it != counts_b.end()) intersection += std::min(count, it->second);
  }
  const size_t union_size = na + nb - intersection;
  if (union_size == 0) return 1.0;
  return static_cast<double>(intersection) / static_cast<double>(union_size);
}

CorpusBaseRows CorpusBaseRows::Build(const SketchScheme& scheme,
                                     const Corpus& corpus,
                                     size_t num_threads) {
  CorpusBaseRows rows;
  if (scheme.id() == SketchSchemeId::kIndependent) return rows;
  const size_t num_texts = corpus.num_texts();
  rows.offsets_.resize(num_texts + 1);
  rows.offsets_[0] = 0;
  for (size_t i = 0; i < num_texts; ++i) {
    rows.offsets_[i + 1] = rows.offsets_[i] + corpus.text_length(i);
  }
  rows.rows_.resize(rows.offsets_[num_texts]);
  num_threads = std::max<size_t>(1, num_threads);
  if (num_threads == 1 || num_texts <= 1) {
    for (size_t i = 0; i < num_texts; ++i) {
      const std::span<const Token> text = corpus.text(i);
      scheme.FillBaseRow(text.data(), text.size(),
                         rows.rows_.data() + rows.offsets_[i]);
    }
    return rows;
  }
  const size_t chunk = (num_texts + num_threads - 1) / num_threads;
  ParallelFor(num_threads, num_threads, [&](size_t th) {
    const size_t begin = th * chunk;
    const size_t end = std::min(num_texts, begin + chunk);
    for (size_t i = begin; i < end; ++i) {
      const std::span<const Token> text = corpus.text(i);
      scheme.FillBaseRow(text.data(), text.size(),
                         rows.rows_.data() + rows.offsets_[i]);
    }
  });
  return rows;
}

}  // namespace ndss
