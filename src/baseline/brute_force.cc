#include "baseline/brute_force.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

namespace ndss {

std::vector<BaselineMatch> BruteForceApproxSearch(
    const Corpus& corpus, const SketchScheme& scheme,
    std::span<const Token> query, double theta, uint32_t t) {
  std::vector<BaselineMatch> matches;
  if (query.empty()) return matches;
  const MinHashSketch query_sketch =
      ComputeSketch(scheme, query.data(), query.size());
  const uint32_t k = scheme.k();
  const uint32_t beta =
      std::min<uint32_t>(k, static_cast<uint32_t>(std::ceil(theta * k)));

  std::vector<uint64_t> running_min(k);
  for (size_t local = 0; local < corpus.num_texts(); ++local) {
    const std::span<const Token> text = corpus.text(local);
    const TextId id = corpus.base_id() + static_cast<TextId>(local);
    const size_t n = text.size();
    for (size_t i = 0; i + t <= n; ++i) {
      for (uint32_t f = 0; f < k; ++f) running_min[f] = ~0ULL;
      for (size_t j = i; j < n; ++j) {
        uint32_t collisions = 0;
        for (uint32_t f = 0; f < k; ++f) {
          const uint64_t h = scheme.Hash(f, text[j]);
          if (h < running_min[f]) running_min[f] = h;
          if (running_min[f] == query_sketch.min_hashes[f]) ++collisions;
        }
        if (j - i + 1 >= t && collisions >= beta) {
          matches.push_back(BaselineMatch{
              id, static_cast<uint32_t>(i), static_cast<uint32_t>(j),
              collisions, static_cast<double>(collisions) / k});
        }
      }
    }
  }
  return matches;
}

std::vector<BaselineMatch> BruteForceExactSearch(const Corpus& corpus,
                                                 std::span<const Token> query,
                                                 double theta, uint32_t t) {
  std::vector<BaselineMatch> matches;
  if (query.empty()) return matches;
  const std::unordered_set<Token> query_set(query.begin(), query.end());

  for (size_t local = 0; local < corpus.num_texts(); ++local) {
    const std::span<const Token> text = corpus.text(local);
    const TextId id = corpus.base_id() + static_cast<TextId>(local);
    const size_t n = text.size();
    std::unordered_map<Token, uint32_t> counts;
    for (size_t i = 0; i + t <= n; ++i) {
      counts.clear();
      size_t intersection = 0;  // distinct tokens shared with the query
      size_t distinct = 0;      // distinct tokens of the window
      for (size_t j = i; j < n; ++j) {
        uint32_t& count = counts[text[j]];
        if (count == 0) {
          ++distinct;
          if (query_set.count(text[j]) != 0) ++intersection;
        }
        ++count;
        if (j - i + 1 < t) continue;
        const size_t union_size = distinct + query_set.size() - intersection;
        const double similarity =
            union_size == 0
                ? 1.0
                : static_cast<double>(intersection) / union_size;
        if (similarity >= theta) {
          matches.push_back(BaselineMatch{id, static_cast<uint32_t>(i),
                                          static_cast<uint32_t>(j), 0,
                                          similarity});
        }
      }
    }
  }
  return matches;
}

bool ContainsVerbatim(const Corpus& corpus, std::span<const Token> query) {
  if (query.empty()) return true;
  constexpr uint64_t kBase = 1000000007ULL;
  const size_t m = query.size();
  uint64_t pattern_hash = 0;
  uint64_t power = 1;  // kBase^(m-1)
  for (size_t i = 0; i < m; ++i) {
    pattern_hash = pattern_hash * kBase + query[i];
    if (i + 1 < m) power *= kBase;
  }
  for (size_t local = 0; local < corpus.num_texts(); ++local) {
    const std::span<const Token> text = corpus.text(local);
    const size_t n = text.size();
    if (n < m) continue;
    uint64_t rolling = 0;
    for (size_t i = 0; i < m; ++i) rolling = rolling * kBase + text[i];
    for (size_t i = 0;; ++i) {
      if (rolling == pattern_hash &&
          std::equal(query.begin(), query.end(), text.begin() + i)) {
        return true;
      }
      if (i + m >= n) break;
      rolling = (rolling - text[i] * power) * kBase + text[i + m];
    }
  }
  return false;
}

double SpanJaccard(const Corpus& corpus, TextId text, uint32_t begin,
                   uint32_t end, std::span<const Token> query) {
  const std::span<const Token> tokens = corpus.text_by_id(text);
  return ExactDistinctJaccard(tokens.data() + begin, end - begin + 1,
                              query.data(), query.size());
}

}  // namespace ndss
