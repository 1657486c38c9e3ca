#include "corpusgen/synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "sketch/sketch_scheme.h"

namespace ndss {
namespace {

SyntheticCorpusOptions SmallOptions() {
  SyntheticCorpusOptions options;
  options.num_texts = 200;
  options.min_text_length = 50;
  options.max_text_length = 150;
  options.vocab_size = 500;
  options.plant_rate = 0.5;
  options.min_plant_length = 20;
  options.max_plant_length = 40;
  options.plant_noise = 0.1;
  options.seed = 7;
  return options;
}

TEST(SyntheticCorpusTest, RespectsShapeOptions) {
  SyntheticCorpus sc = GenerateSyntheticCorpus(SmallOptions());
  EXPECT_EQ(sc.corpus.num_texts(), 200u);
  for (size_t i = 0; i < sc.corpus.num_texts(); ++i) {
    const size_t len = sc.corpus.text_length(i);
    EXPECT_GE(len, 50u);
    EXPECT_LE(len, 150u);
    for (Token token : sc.corpus.text(i)) EXPECT_LT(token, 500u);
  }
}

TEST(SyntheticCorpusTest, DeterministicGivenSeed) {
  SyntheticCorpus a = GenerateSyntheticCorpus(SmallOptions());
  SyntheticCorpus b = GenerateSyntheticCorpus(SmallOptions());
  ASSERT_EQ(a.corpus.num_texts(), b.corpus.num_texts());
  for (size_t i = 0; i < a.corpus.num_texts(); ++i) {
    ASSERT_TRUE(std::equal(a.corpus.text(i).begin(), a.corpus.text(i).end(),
                           b.corpus.text(i).begin(),
                           b.corpus.text(i).end()));
  }
  EXPECT_EQ(a.plants.size(), b.plants.size());
}

TEST(SyntheticCorpusTest, PlantRateApproximatelyHonoured) {
  SyntheticCorpus sc = GenerateSyntheticCorpus(SmallOptions());
  // plant_rate = 0.5 over 199 eligible texts.
  EXPECT_GT(sc.plants.size(), 60u);
  EXPECT_LT(sc.plants.size(), 140u);
}

TEST(SyntheticCorpusTest, PlantedSpansActuallySimilar) {
  SyntheticCorpus sc = GenerateSyntheticCorpus(SmallOptions());
  ASSERT_FALSE(sc.plants.empty());
  for (const PlantedSpan& plant : sc.plants) {
    const auto source = sc.corpus.text(plant.source_text);
    const auto target = sc.corpus.text(plant.target_text);
    ASSERT_LE(plant.source_begin + plant.length, source.size());
    ASSERT_LE(plant.target_begin + plant.length, target.size());
    const double jaccard = ExactDistinctJaccard(
        source.data() + plant.source_begin, plant.length,
        target.data() + plant.target_begin, plant.length);
    // 10% noise leaves high similarity.
    EXPECT_GT(jaccard, 0.5) << "plant into text " << plant.target_text;
    EXPECT_LE(plant.perturbed, plant.length);
  }
}

TEST(SyntheticCorpusTest, ZeroNoiseMakesExactCopies) {
  SyntheticCorpusOptions options = SmallOptions();
  options.plant_noise = 0.0;
  SyntheticCorpus sc = GenerateSyntheticCorpus(options);
  ASSERT_FALSE(sc.plants.empty());
  for (const PlantedSpan& plant : sc.plants) {
    const auto source = sc.corpus.text(plant.source_text);
    const auto target = sc.corpus.text(plant.target_text);
    EXPECT_TRUE(std::equal(source.begin() + plant.source_begin,
                           source.begin() + plant.source_begin + plant.length,
                           target.begin() + plant.target_begin));
    EXPECT_EQ(plant.perturbed, 0u);
  }
}

TEST(SyntheticCorpusTest, TokenFrequenciesAreSkewed) {
  SyntheticCorpusOptions options = SmallOptions();
  options.plant_rate = 0.0;
  SyntheticCorpus sc = GenerateSyntheticCorpus(options);
  std::unordered_map<Token, uint64_t> freq;
  for (size_t i = 0; i < sc.corpus.num_texts(); ++i) {
    for (Token token : sc.corpus.text(i)) ++freq[token];
  }
  std::vector<uint64_t> counts;
  for (const auto& [token, count] : freq) counts.push_back(count);
  std::sort(counts.begin(), counts.end(), std::greater<uint64_t>());
  // Zipf: the most frequent token dominates the median token.
  EXPECT_GT(counts.front(), 10 * counts[counts.size() / 2]);
}

TEST(PerturbSequenceTest, NoiseZeroCopiesExactly) {
  SyntheticCorpus sc = GenerateSyntheticCorpus(SmallOptions());
  Rng rng(5);
  const auto text = sc.corpus.text(0);
  std::vector<Token> q =
      PerturbSequence(text, 10, 20, 0.0, 500, rng);
  EXPECT_TRUE(std::equal(q.begin(), q.end(), text.begin() + 10));
}

TEST(PerturbSequenceTest, FullNoiseChangesMostTokens) {
  SyntheticCorpus sc = GenerateSyntheticCorpus(SmallOptions());
  Rng rng(5);
  const auto text = sc.corpus.text(0);
  std::vector<Token> q = PerturbSequence(text, 0, 50, 1.0, 500, rng);
  size_t same = 0;
  for (size_t i = 0; i < 50; ++i) same += (q[i] == text[i]) ? 1 : 0;
  EXPECT_LT(same, 10u);
}

TEST(DuplicationCorpusTest, CanariesPlantedExactlyDuplicationTimes) {
  SyntheticCorpusOptions base;
  base.num_texts = 300;
  base.min_text_length = 60;
  base.max_text_length = 120;
  base.vocab_size = 500;
  base.seed = 8;
  DuplicationCorpus dc =
      GenerateDuplicationCorpus(base, {1, 3, 9}, 4, 20);
  ASSERT_EQ(dc.canaries.size(), 12u);
  for (const Canary& canary : dc.canaries) {
    // Count verbatim occurrences across the corpus.
    uint32_t occurrences = 0;
    for (size_t i = 0; i < dc.corpus.num_texts(); ++i) {
      const auto text = dc.corpus.text(i);
      for (size_t p = 0; p + canary.tokens.size() <= text.size(); ++p) {
        if (std::equal(canary.tokens.begin(), canary.tokens.end(),
                       text.begin() + p)) {
          ++occurrences;
          break;  // disjoint hosts: at most one copy per text
        }
      }
    }
    EXPECT_EQ(occurrences, canary.duplication)
        << "canary with factor " << canary.duplication;
  }
}

TEST(DuplicationCorpusTest, DeterministicGivenSeed) {
  SyntheticCorpusOptions base;
  base.num_texts = 100;
  base.min_text_length = 50;
  base.max_text_length = 80;
  base.vocab_size = 200;
  base.seed = 9;
  DuplicationCorpus a = GenerateDuplicationCorpus(base, {2, 4}, 3, 15);
  DuplicationCorpus b = GenerateDuplicationCorpus(base, {2, 4}, 3, 15);
  ASSERT_EQ(a.canaries.size(), b.canaries.size());
  for (size_t i = 0; i < a.canaries.size(); ++i) {
    EXPECT_EQ(a.canaries[i].tokens, b.canaries[i].tokens);
  }
  ASSERT_EQ(a.corpus.num_texts(), b.corpus.num_texts());
  for (size_t i = 0; i < a.corpus.num_texts(); ++i) {
    ASSERT_TRUE(std::equal(a.corpus.text(i).begin(), a.corpus.text(i).end(),
                           b.corpus.text(i).begin(),
                           b.corpus.text(i).end()));
  }
}

TEST(SyntheticEnglishTest, DeterministicAndNonTrivial) {
  const std::string a = GenerateSyntheticEnglish(100, 3);
  const std::string b = GenerateSyntheticEnglish(100, 3);
  const std::string c = GenerateSyntheticEnglish(100, 4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_GT(a.size(), 1000u);
  EXPECT_NE(a.find(' '), std::string::npos);
  EXPECT_NE(a.find(". "), std::string::npos);
}

}  // namespace
}  // namespace ndss
