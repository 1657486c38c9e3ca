// End-to-end property sweep: across (k, t, theta, vocabulary skew)
// configurations, the disk-backed searcher must be sound and complete with
// respect to Definition 2 (brute-force cross-check), identical to the
// in-memory searcher, and invariant to prefix filtering and posting
// compression.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <tuple>

#include "baseline/brute_force.h"
#include "corpusgen/synthetic.h"
#include "index/index_builder.h"
#include "query/searcher.h"

namespace ndss {
namespace {

struct SweepConfig {
  uint32_t k;
  uint32_t t;
  uint32_t vocab;
  double zipf;
  const char* name;
};

const SweepConfig kConfigs[] = {
    {4, 10, 100, 1.0, "k4_t10_v100"},
    {8, 20, 1000, 1.0, "k8_t20_v1000"},
    {16, 25, 200, 1.3, "k16_t25_skewed"},
    {5, 15, 50, 0.5, "k5_t15_tiny_vocab"},
    {32, 30, 5000, 1.0, "k32_t30_v5000"},
};

using SequenceKey = std::tuple<TextId, uint32_t, uint32_t>;

std::set<SequenceKey> Expand(const std::vector<TextMatchRectangle>& rects,
                             uint32_t t) {
  std::set<SequenceKey> sequences;
  for (const TextMatchRectangle& tr : rects) {
    for (uint32_t i = tr.rect.x_begin; i <= tr.rect.x_end; ++i) {
      for (uint32_t j = tr.rect.y_begin; j <= tr.rect.y_end; ++j) {
        if (j >= i && j - i + 1 >= t) sequences.insert({tr.text, i, j});
      }
    }
  }
  return sequences;
}

class E2eSweepTest : public ::testing::TestWithParam<SweepConfig> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ndss_sweep_" + GetParam().name;
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_P(E2eSweepTest, SoundCompleteAndConfigurationInvariant) {
  const SweepConfig config = GetParam();

  SyntheticCorpusOptions corpus_options;
  corpus_options.num_texts = 50;
  corpus_options.min_text_length = config.t + 10;
  corpus_options.max_text_length = 120;
  corpus_options.vocab_size = config.vocab;
  corpus_options.zipf_exponent = config.zipf;
  corpus_options.plant_rate = 0.4;
  corpus_options.min_plant_length = config.t;
  corpus_options.max_plant_length = config.t * 2;
  corpus_options.plant_noise = 0.1;
  corpus_options.seed = 1000 + config.k;
  SyntheticCorpus sc = GenerateSyntheticCorpus(corpus_options);

  IndexBuildOptions build;
  build.k = config.k;
  build.t = config.t;
  build.zone_step = 8;
  build.zone_threshold = 32;
  ASSERT_TRUE(BuildIndexInMemory(sc.corpus, dir_ + "/raw", build).ok());
  IndexBuildOptions compressed = build;
  compressed.posting_format = index_format::kFormatCompressed;
  ASSERT_TRUE(
      BuildIndexInMemory(sc.corpus, dir_ + "/comp", compressed).ok());

  auto raw = Searcher::Open(dir_ + "/raw");
  auto comp = Searcher::Open(dir_ + "/comp");
  auto memory = Searcher::InMemory(sc.corpus, build);
  ASSERT_TRUE(raw.ok() && comp.ok() && memory.ok());
  SketchScheme family(SketchSchemeId::kIndependent, build.k, build.seed);

  Rng rng(config.k * 31 + config.t);
  for (int q = 0; q < 4; ++q) {
    const TextId source = static_cast<TextId>(rng.Uniform(50));
    const auto text = sc.corpus.text(source);
    const uint32_t length = std::min<uint32_t>(
        config.t + 10, static_cast<uint32_t>(text.size()));
    const uint32_t begin =
        static_cast<uint32_t>(rng.Uniform(text.size() - length + 1));
    const std::vector<Token> query = PerturbSequence(
        text, begin, length, 0.15, config.vocab, rng);

    for (double theta : {0.5, 0.8, 1.0}) {
      SearchOptions plain;
      plain.theta = theta;
      plain.use_prefix_filter = false;
      SearchOptions filtered;
      filtered.theta = theta;
      filtered.use_prefix_filter = true;
      filtered.long_list_threshold = 32;
      SearchOptions adaptive;
      adaptive.theta = theta;
      adaptive.use_cost_model = true;

      auto r_plain = raw->Search(query, plain);
      auto r_filtered = raw->Search(query, filtered);
      auto r_adaptive = raw->Search(query, adaptive);
      auto r_comp = comp->Search(query, plain);
      auto r_memory = memory->Search(query, plain);
      ASSERT_TRUE(r_plain.ok() && r_filtered.ok() && r_adaptive.ok() &&
                  r_comp.ok() && r_memory.ok());

      const auto expected = Expand(r_plain->rectangles, config.t);
      // Soundness + completeness against the brute-force evaluation of
      // Definition 2.
      std::set<SequenceKey> brute;
      for (const BaselineMatch& m : BruteForceApproxSearch(
               sc.corpus, family, query, theta, config.t)) {
        brute.insert({m.text, m.begin, m.end});
      }
      ASSERT_EQ(expected, brute)
          << config.name << " q=" << q << " theta=" << theta;
      // Invariance across prefix filtering / cost model / compression /
      // in-memory index.
      ASSERT_EQ(Expand(r_filtered->rectangles, config.t), expected);
      ASSERT_EQ(Expand(r_adaptive->rectangles, config.t), expected);
      ASSERT_EQ(Expand(r_comp->rectangles, config.t), expected);
      ASSERT_EQ(Expand(r_memory->rectangles, config.t), expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, E2eSweepTest,
                         ::testing::ValuesIn(kConfigs),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace ndss
