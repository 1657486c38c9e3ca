#include "query/verify.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "corpusgen/synthetic.h"
#include "index/index_builder.h"
#include "sketch/sketch_scheme.h"

namespace ndss {
namespace {

TEST(BestWindowJaccardTest, ExactCopyScoresOne) {
  std::vector<Token> tokens = {9, 9, 1, 2, 3, 4, 9, 9};
  std::vector<Token> query = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(
      BestWindowJaccard(tokens, 0, 7, query), 1.0);
}

TEST(BestWindowJaccardTest, FindsBestWindowNotWholeSpan) {
  // The whole span has low similarity; the middle window is perfect.
  std::vector<Token> tokens = {100, 101, 1, 2, 3, 102, 103};
  std::vector<Token> query = {1, 2, 3};
  const double whole = ExactDistinctJaccard(tokens.data(), tokens.size(),
                                            query.data(), query.size());
  EXPECT_LT(whole, 0.5);
  EXPECT_DOUBLE_EQ(BestWindowJaccard(tokens, 0, 6, query), 1.0);
}

TEST(BestWindowJaccardTest, SpanShorterThanQuery) {
  std::vector<Token> tokens = {1, 2};
  std::vector<Token> query = {1, 2, 3, 4};
  // Window = whole span {1,2}; intersection 2, union 4.
  EXPECT_DOUBLE_EQ(BestWindowJaccard(tokens, 0, 1, query), 0.5);
}

TEST(BestWindowJaccardTest, DisjointScoresZero) {
  std::vector<Token> tokens = {5, 6, 7, 8};
  std::vector<Token> query = {1, 2};
  EXPECT_DOUBLE_EQ(BestWindowJaccard(tokens, 0, 3, query), 0.0);
}

TEST(BestWindowJaccardTest, MatchesNaiveSlidingScan) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Token> tokens(60);
    for (auto& t : tokens) t = static_cast<Token>(rng.Uniform(15));
    std::vector<Token> query(12);
    for (auto& t : query) t = static_cast<Token>(rng.Uniform(15));
    double naive = 0;
    for (size_t i = 0; i + query.size() <= tokens.size(); ++i) {
      naive = std::max(naive, ExactDistinctJaccard(tokens.data() + i,
                                                   query.size(), query.data(),
                                                   query.size()));
    }
    ASSERT_NEAR(BestWindowJaccard(tokens, 0,
                                  static_cast<uint32_t>(tokens.size() - 1),
                                  query),
                naive, 1e-12)
        << "trial " << trial;
  }
}

class VerifySpansTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ndss_verify_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(VerifySpansTest, EndToEndVerificationFiltersFalsePositives) {
  SyntheticCorpusOptions corpus_options;
  corpus_options.num_texts = 80;
  corpus_options.vocab_size = 300;
  corpus_options.plant_rate = 0.4;
  corpus_options.plant_noise = 0.05;
  corpus_options.seed = 20;
  SyntheticCorpus sc = GenerateSyntheticCorpus(corpus_options);

  IndexBuildOptions build;
  build.k = 8;  // small k → noisy estimates → some false positives
  build.t = 20;
  ASSERT_TRUE(BuildIndexInMemory(sc.corpus, dir_, build).ok());
  auto searcher = Searcher::Open(dir_);
  ASSERT_TRUE(searcher.ok());

  Rng rng(2);
  size_t total_spans = 0, kept_spans = 0;
  for (int q = 0; q < 10; ++q) {
    const TextId source = static_cast<TextId>(rng.Uniform(80));
    const auto text = sc.corpus.text(source);
    const uint32_t length =
        std::min<uint32_t>(40, static_cast<uint32_t>(text.size()));
    const std::vector<Token> query =
        PerturbSequence(text, 0, length, 0.1, 300, rng);
    SearchOptions options;
    options.theta = 0.6;
    auto result = searcher->Search(query, options);
    ASSERT_TRUE(result.ok());
    const auto verified = VerifySpans(sc.corpus, query, result->spans, 0.6);
    total_spans += result->spans.size();
    kept_spans += verified.size();
    for (const VerifiedMatch& match : verified) {
      EXPECT_GE(match.exact_jaccard, 0.6);
      EXPECT_LE(match.exact_jaccard, 1.0);
    }
  }
  EXPECT_GT(total_spans, 0u);
  EXPECT_GT(kept_spans, 0u);
  EXPECT_LE(kept_spans, total_spans);
}

TEST_F(VerifySpansTest, SelfQueryAlwaysVerifies) {
  SyntheticCorpusOptions corpus_options;
  corpus_options.num_texts = 30;
  corpus_options.vocab_size = 5000;
  corpus_options.plant_rate = 0.0;
  corpus_options.seed = 21;
  SyntheticCorpus sc = GenerateSyntheticCorpus(corpus_options);

  IndexBuildOptions build;
  build.k = 16;
  build.t = 20;
  ASSERT_TRUE(BuildIndexInMemory(sc.corpus, dir_, build).ok());
  auto searcher = Searcher::Open(dir_);
  ASSERT_TRUE(searcher.ok());

  const auto text = sc.corpus.text(4);
  const std::vector<Token> query(text.begin(), text.begin() + 30);
  SearchOptions options;
  options.theta = 1.0;
  auto result = searcher->Search(query, options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->spans.empty());
  const auto verified = VerifySpans(sc.corpus, query, result->spans, 1.0);
  bool self_verified = false;
  for (const VerifiedMatch& match : verified) {
    if (match.span.text == 4) {
      self_verified = true;
      EXPECT_DOUBLE_EQ(match.exact_jaccard, 1.0);
    }
  }
  EXPECT_TRUE(self_verified);
}

}  // namespace
}  // namespace ndss
