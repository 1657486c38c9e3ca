// Recall/accuracy extension experiment: the paper proves the search is
// sound and complete for Definition 2 (min-hash collisions); here we
// measure end-to-end recall of *planted* near-duplicates (known ground
// truth) as a function of theta and the perturbation rate — the guarantee
// users actually care about — plus agreement with the brute-force scan.

#include <cstdio>

#include "baseline/brute_force.h"
#include "bench_util.h"
#include "index/index_builder.h"

int main() {
  using namespace ndss;
  const uint32_t base_texts = bench::Scaled(800);

  SyntheticCorpusOptions corpus_options;
  corpus_options.num_texts = base_texts;
  corpus_options.vocab_size = 16000;
  corpus_options.plant_rate = 0.0;  // queries are planted manually below
  corpus_options.seed = 6;
  SyntheticCorpus sc = GenerateSyntheticCorpus(corpus_options);

  IndexBuildOptions build;
  build.k = 32;
  build.t = 25;
  const std::string dir = bench::ScratchDir("recall");
  if (!BuildIndexInMemory(sc.corpus, dir, build).ok()) return 1;
  auto searcher = Searcher::Open(dir);
  if (!searcher.ok()) return 1;

  bench::PrintHeader(
      "Recall of planted near-duplicates vs theta and noise (k = 32)",
      "each query is a corpus span with a fraction of tokens re-randomized; "
      "recall = share of queries whose source span is found");
  std::printf("%7s %7s %10s %12s %14s\n", "noise", "theta", "recall",
              "mean spans", "mean est.sim");
  Rng rng(99);
  for (double noise : {0.0, 0.05, 0.10, 0.20}) {
    const uint32_t kQueries = 100;
    struct PlantedQuery {
      TextId source;
      uint32_t begin;
      uint32_t length;
      std::vector<Token> tokens;
    };
    std::vector<PlantedQuery> queries;
    while (queries.size() < kQueries) {
      const TextId id =
          static_cast<TextId>(rng.Uniform(sc.corpus.num_texts()));
      const auto text = sc.corpus.text(id);
      const uint32_t length = 64;
      if (text.size() < length) continue;
      const uint32_t begin =
          static_cast<uint32_t>(rng.Uniform(text.size() - length + 1));
      queries.push_back({id, begin, length,
                         PerturbSequence(text, begin, length, noise,
                                         corpus_options.vocab_size, rng)});
    }
    for (double theta : {0.9, 0.8, 0.7}) {
      SearchOptions options;
      options.theta = theta;
      uint32_t recalled = 0;
      double total_spans = 0, total_sim = 0;
      uint64_t sim_count = 0;
      for (const PlantedQuery& pq : queries) {
        auto result = searcher->Search(pq.tokens, options);
        if (!result.ok()) return 1;
        total_spans += static_cast<double>(result->spans.size());
        for (const MatchSpan& span : result->spans) {
          total_sim += span.estimated_similarity;
          ++sim_count;
          // The source span counts as recalled if a reported span of the
          // source text overlaps it.
          if (span.text == pq.source && span.begin <= pq.begin + pq.length &&
              pq.begin <= span.end) {
            ++recalled;
            break;
          }
        }
      }
      std::printf("%7.2f %7.2f %9.1f%% %12.2f %14.3f\n", noise, theta,
                  100.0 * recalled / kQueries, total_spans / kQueries,
                  sim_count == 0 ? 0.0 : total_sim / sim_count);
    }
  }

  bench::PrintHeader(
      "Agreement with brute-force Definition 2 scan (Theorem 2 check)",
      "the index search must find exactly the same sequence set as the "
      "brute-force min-hash scan");
  {
    // Small sub-corpus so the brute force is feasible.
    Corpus small;
    for (size_t i = 0; i < 40 && i < sc.corpus.num_texts(); ++i) {
      small.AddText(sc.corpus.text(i));
    }
    IndexBuildOptions small_build;
    small_build.k = 16;
    small_build.t = 25;
    const std::string small_dir = bench::ScratchDir("recall_small");
    if (!BuildIndexInMemory(small, small_dir, small_build).ok()) return 1;
    auto small_searcher = Searcher::Open(small_dir);
    if (!small_searcher.ok()) return 1;
    SketchScheme family(SketchSchemeId::kIndependent, small_build.k,
                        small_build.seed);
    Rng qrng(7);
    const auto queries = bench::MakeQueries(small, 10, 48, 0.1, 16000, 3);
    uint32_t agreements = 0;
    for (const auto& query : queries) {
      SearchOptions options;
      options.theta = 0.7;
      options.merge_matches = false;
      auto result = small_searcher->Search(query, options);
      if (!result.ok()) return 1;
      const auto baseline =
          BruteForceApproxSearch(small, family, query, 0.7, small_build.t);
      // Count distinct sequences from rectangles.
      uint64_t rect_sequences = 0;
      for (const TextMatchRectangle& tr : result->rectangles) {
        for (uint32_t i = tr.rect.x_begin; i <= tr.rect.x_end; ++i) {
          for (uint32_t j = std::max(tr.rect.y_begin,
                                     i + small_build.t - 1);
               j <= tr.rect.y_end; ++j) {
            ++rect_sequences;
          }
        }
      }
      if (rect_sequences == baseline.size()) ++agreements;
    }
    std::printf("queries with exact sequence-set agreement: %u / %zu\n",
                agreements, queries.size());
  }
  return 0;
}
