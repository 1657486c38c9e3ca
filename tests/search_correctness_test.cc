// End-to-end validation of Theorem 2: the index-based search (Algorithm 3)
// is sound and complete with respect to Definition 2, verified against a
// brute-force scan that evaluates the definition directly.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <tuple>
#include <vector>

#include "baseline/brute_force.h"
#include "corpusgen/synthetic.h"
#include "index/index_builder.h"
#include "query/searcher.h"
#include "sketch/sketch_scheme.h"

namespace ndss {
namespace {

using SequenceKey = std::tuple<TextId, uint32_t, uint32_t>;

std::set<SequenceKey> ExpandRectangles(
    const std::vector<TextMatchRectangle>& rectangles, uint32_t t) {
  std::set<SequenceKey> sequences;
  for (const TextMatchRectangle& tr : rectangles) {
    for (uint32_t i = tr.rect.x_begin; i <= tr.rect.x_end; ++i) {
      for (uint32_t j = tr.rect.y_begin; j <= tr.rect.y_end; ++j) {
        if (j >= i && j - i + 1 >= t) {
          sequences.insert({tr.text, i, j});
        }
      }
    }
  }
  return sequences;
}

std::set<SequenceKey> BaselineSequences(
    const std::vector<BaselineMatch>& matches) {
  std::set<SequenceKey> sequences;
  for (const BaselineMatch& m : matches) {
    sequences.insert({m.text, m.begin, m.end});
  }
  return sequences;
}

class SearchCorrectnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ndss_correct_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(SearchCorrectnessTest, MatchesBruteForceAcrossThetas) {
  SyntheticCorpusOptions corpus_options;
  corpus_options.num_texts = 60;
  corpus_options.min_text_length = 40;
  corpus_options.max_text_length = 120;
  corpus_options.vocab_size = 200;  // small vocab → plenty of collisions
  corpus_options.plant_rate = 0.4;
  corpus_options.min_plant_length = 25;
  corpus_options.max_plant_length = 50;
  corpus_options.plant_noise = 0.1;
  corpus_options.seed = 31;
  SyntheticCorpus sc = GenerateSyntheticCorpus(corpus_options);

  IndexBuildOptions build;
  build.k = 6;
  build.t = 15;
  build.zone_step = 8;
  build.zone_threshold = 32;
  ASSERT_TRUE(BuildIndexInMemory(sc.corpus, dir_, build).ok());
  auto searcher = Searcher::Open(dir_);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  SketchScheme family(SketchSchemeId::kIndependent, build.k, build.seed);

  Rng rng(7);
  for (int q = 0; q < 6; ++q) {
    // Queries are perturbed spans of corpus texts, so near-duplicates exist.
    const TextId source = static_cast<TextId>(rng.Uniform(60));
    const auto text = sc.corpus.text(source);
    const uint32_t length =
        20 + static_cast<uint32_t>(rng.Uniform(std::min<size_t>(
                 40, text.size() - 20)));
    const uint32_t begin =
        static_cast<uint32_t>(rng.Uniform(text.size() - length + 1));
    const std::vector<Token> query = PerturbSequence(
        text, begin, length, 0.15, corpus_options.vocab_size, rng);

    for (double theta : {0.5, 0.7, 0.9, 1.0}) {
      SearchOptions options;
      options.theta = theta;
      options.use_prefix_filter = false;
      auto result = searcher->Search(query, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();

      const std::set<SequenceKey> got =
          ExpandRectangles(result->rectangles, build.t);
      const std::set<SequenceKey> expected = BaselineSequences(
          BruteForceApproxSearch(sc.corpus, family, query, theta, build.t));
      ASSERT_EQ(got, expected)
          << "query " << q << " theta " << theta << ": got " << got.size()
          << " sequences, brute force found " << expected.size();
    }
  }
}

TEST_F(SearchCorrectnessTest, PrefixFilterDoesNotChangeResults) {
  SyntheticCorpusOptions corpus_options;
  corpus_options.num_texts = 80;
  corpus_options.min_text_length = 50;
  corpus_options.max_text_length = 150;
  corpus_options.vocab_size = 150;  // skewed, frequent tokens → long lists
  corpus_options.zipf_exponent = 1.2;
  corpus_options.plant_rate = 0.4;
  corpus_options.seed = 77;
  SyntheticCorpus sc = GenerateSyntheticCorpus(corpus_options);

  IndexBuildOptions build;
  build.k = 8;
  build.t = 20;
  build.zone_step = 8;
  build.zone_threshold = 16;
  ASSERT_TRUE(BuildIndexInMemory(sc.corpus, dir_, build).ok());
  auto searcher = Searcher::Open(dir_);
  ASSERT_TRUE(searcher.ok());

  Rng rng(5);
  for (int q = 0; q < 8; ++q) {
    const TextId source = static_cast<TextId>(rng.Uniform(80));
    const auto text = sc.corpus.text(source);
    const uint32_t length = std::min<uint32_t>(
        40, static_cast<uint32_t>(text.size()));
    const uint32_t begin =
        static_cast<uint32_t>(rng.Uniform(text.size() - length + 1));
    const std::vector<Token> query =
        PerturbSequence(text, begin, length, 0.1, 150, rng);

    for (double theta : {0.6, 0.8}) {
      SearchOptions with_filter;
      with_filter.theta = theta;
      with_filter.use_prefix_filter = true;
      with_filter.long_list_threshold = 64;  // aggressively long
      SearchOptions without_filter = with_filter;
      without_filter.use_prefix_filter = false;

      auto filtered = searcher->Search(query, with_filter);
      auto unfiltered = searcher->Search(query, without_filter);
      ASSERT_TRUE(filtered.ok() && unfiltered.ok());
      EXPECT_EQ(ExpandRectangles(filtered->rectangles, build.t),
                ExpandRectangles(unfiltered->rectangles, build.t))
          << "query " << q << " theta " << theta;
    }
  }
}

TEST_F(SearchCorrectnessTest, ReportedCollisionCountsAreExact) {
  SyntheticCorpusOptions corpus_options;
  corpus_options.num_texts = 30;
  corpus_options.min_text_length = 40;
  corpus_options.max_text_length = 80;
  corpus_options.vocab_size = 100;
  corpus_options.plant_rate = 0.5;
  corpus_options.seed = 13;
  SyntheticCorpus sc = GenerateSyntheticCorpus(corpus_options);

  IndexBuildOptions build;
  build.k = 5;
  build.t = 12;
  ASSERT_TRUE(BuildIndexInMemory(sc.corpus, dir_, build).ok());
  auto searcher = Searcher::Open(dir_);
  ASSERT_TRUE(searcher.ok());
  SketchScheme family(SketchSchemeId::kIndependent, build.k, build.seed);

  const auto text0 = sc.corpus.text(0);
  const std::vector<Token> query(text0.begin(),
                                 text0.begin() + std::min<size_t>(
                                     30, text0.size()));
  SearchOptions options;
  options.theta = 0.4;
  options.use_prefix_filter = false;
  auto result = searcher->Search(query, options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->rectangles.empty());

  const MinHashSketch query_sketch =
      ComputeSketch(family, query.data(), query.size());
  for (const TextMatchRectangle& tr : result->rectangles) {
    // Verify the corner sequence's collision count directly. Only corners
    // of length >= t carry the guarantee: shorter sequences may have extra
    // min-hash collisions through windows narrower than t, which are never
    // generated (Definition 2 excludes those sequences anyway).
    const auto text = sc.corpus.text_by_id(tr.text);
    const uint32_t i = tr.rect.x_begin;
    const uint32_t j = tr.rect.y_end;
    if (j - i + 1 < build.t) continue;
    const MinHashSketch seq_sketch =
        ComputeSketch(family, text.data() + i, j - i + 1);
    uint32_t collisions = 0;
    for (uint32_t f = 0; f < build.k; ++f) {
      if (seq_sketch.min_hashes[f] == query_sketch.min_hashes[f]) {
        ++collisions;
      }
    }
    EXPECT_EQ(collisions, tr.rect.collisions)
        << "text " << tr.text << " seq [" << i << "," << j << "]";
  }
}

}  // namespace
}  // namespace ndss
