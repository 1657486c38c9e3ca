// Pass 1 of the search drops every text found in fewer than beta1 of the
// short lists before running CollisionCount on it. These tests pin that the
// filter is exact on a corpus built to defeat the weaker "group has >= beta1
// windows" bound (repeated tokens put many windows of one text into one
// list), across every pass-1 read path, and that a list naming a text the
// index does not hold is corruption, never an out-of-bounds access.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "baseline/brute_force.h"
#include "common/random.h"
#include "hash/hash_family.h"
#include "index/index_builder.h"
#include "index/memory_index.h"
#include "query/list_cache.h"
#include "query/searcher.h"

namespace ndss {
namespace {

using SequenceKey = std::tuple<TextId, uint32_t, uint32_t>;
using RectKey = std::tuple<TextId, uint32_t, uint32_t, uint32_t, uint32_t,
                           uint32_t>;
using SpanKey = std::tuple<TextId, uint32_t, uint32_t, uint32_t>;

constexpr uint32_t kK = 8;
constexpr uint32_t kT = 8;
constexpr uint32_t kVocab = 24;

std::set<SequenceKey> ExpandRectangles(
    const std::vector<TextMatchRectangle>& rectangles) {
  std::set<SequenceKey> sequences;
  for (const TextMatchRectangle& tr : rectangles) {
    for (uint32_t i = tr.rect.x_begin; i <= tr.rect.x_end; ++i) {
      for (uint32_t j = tr.rect.y_begin; j <= tr.rect.y_end; ++j) {
        if (j >= i && j - i + 1 >= kT) sequences.insert({tr.text, i, j});
      }
    }
  }
  return sequences;
}

std::set<SequenceKey> BruteForce(const Corpus& corpus, uint32_t k,
                                 const std::vector<Token>& query,
                                 double theta) {
  std::set<SequenceKey> sequences;
  for (const BaselineMatch& m :
       BruteForceApproxSearch(corpus, HashFamily(k, IndexMeta{}.seed), query,
                              theta, kT)) {
    sequences.insert({m.text, m.begin, m.end});
  }
  return sequences;
}

/// The answer in emission order, so two paths compare bit for bit.
std::pair<std::vector<RectKey>, std::vector<SpanKey>> Answer(
    const SearchResult& result) {
  std::pair<std::vector<RectKey>, std::vector<SpanKey>> answer;
  for (const TextMatchRectangle& tr : result.rectangles) {
    answer.first.emplace_back(tr.text, tr.rect.x_begin, tr.rect.x_end,
                              tr.rect.y_begin, tr.rect.y_end,
                              tr.rect.collisions);
  }
  for (const MatchSpan& span : result.spans) {
    answer.second.emplace_back(span.text, span.begin, span.end,
                               span.collisions);
  }
  return answer;
}

/// Each text draws from a palette of 2-5 tokens of a 24-token vocabulary:
/// a token repeats many times, so one text holds many windows in the list
/// of that token.
Corpus RepeatedTokenCorpus(uint64_t seed) {
  Rng rng(seed);
  Corpus corpus;
  for (int i = 0; i < 40; ++i) {
    std::vector<Token> palette(2 + rng.Uniform(4));
    for (Token& token : palette) {
      token = static_cast<Token>(rng.Uniform(kVocab));
    }
    std::vector<Token> text(60 + rng.Uniform(60));
    for (Token& token : text) token = palette[rng.Uniform(palette.size())];
    corpus.AddText(text);
  }
  return corpus;
}

/// Spans of corpus texts, some with a few tokens replaced.
std::vector<std::vector<Token>> Queries(const Corpus& corpus, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Token>> queries;
  for (int q = 0; q < 10; ++q) {
    const auto text = corpus.text(static_cast<TextId>(rng.Uniform(40)));
    const size_t length = 12 + rng.Uniform(30);
    const size_t begin = rng.Uniform(text.size() - length + 1);
    std::vector<Token> query(text.begin() + begin,
                             text.begin() + begin + length);
    for (int edit = 0; edit < q % 3; ++edit) {
      query[rng.Uniform(length)] = static_cast<Token>(rng.Uniform(kVocab));
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

IndexBuildOptions Build() {
  IndexBuildOptions build;
  build.k = kK;
  build.t = kT;
  build.zone_step = 4;
  build.zone_threshold = 16;
  return build;
}

std::vector<SearchOptions> OptionVariants(double theta) {
  SearchOptions no_prefix;
  no_prefix.theta = theta;
  no_prefix.use_prefix_filter = false;
  SearchOptions prefix = no_prefix;
  prefix.use_prefix_filter = true;
  prefix.long_list_threshold = 40;
  SearchOptions cost_model = prefix;
  cost_model.use_cost_model = true;
  return {no_prefix, prefix, cost_model};
}

class Pass1FilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ndss_pass1_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(Pass1FilterTest, CorpusDefeatsTheWindowCountBound) {
  // The corpus must hold (query, text) pairs whose pass-1 windows reach
  // beta while their distinct lists do not, or the other tests here would
  // not exercise the filter. With prefix filtering off every present list
  // is short and beta1 = beta; groups_swept must count exactly the texts
  // found in >= beta lists.
  const Corpus corpus = RepeatedTokenCorpus(3);
  const SketchScheme scheme(SketchSchemeId::kIndependent, kK, IndexMeta{}.seed);
  std::vector<std::unique_ptr<InMemoryInvertedIndex>> index;
  for (uint32_t func = 0; func < kK; ++func) {
    index.push_back(
        std::make_unique<InMemoryInvertedIndex>(corpus, scheme, func, kT));
  }
  auto searcher = Searcher::InMemory(corpus, Build());
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();

  uint64_t window_bound_only = 0;
  for (const std::vector<Token>& query : Queries(corpus, 5)) {
    const MinHashSketch sketch =
        ComputeSketch(scheme, query.data(), query.size());
    std::vector<uint32_t> windows(corpus.num_texts(), 0);
    std::vector<uint32_t> lists(corpus.num_texts(), 0);
    for (uint32_t func = 0; func < kK; ++func) {
      const ListMeta* meta = index[func]->FindList(sketch.argmin_tokens[func]);
      if (meta == nullptr) continue;
      std::vector<PostedWindow> list;
      ASSERT_TRUE(index[func]->ReadList(*meta, &list).ok());
      std::set<TextId> texts;
      for (const PostedWindow& w : list) {
        ++windows[w.text];
        texts.insert(w.text);
      }
      for (TextId text : texts) ++lists[text];
    }
    for (double theta : {0.5, 0.75, 1.0}) {
      const uint32_t beta = static_cast<uint32_t>(std::ceil(theta * kK));
      uint64_t swept = 0;
      for (size_t text = 0; text < corpus.num_texts(); ++text) {
        if (lists[text] >= beta) ++swept;
        if (windows[text] >= beta && lists[text] < beta) ++window_bound_only;
      }
      SearchOptions options;
      options.theta = theta;
      options.use_prefix_filter = false;
      auto result = searcher->Search(query, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->stats.groups_swept, swept) << "theta " << theta;
      EXPECT_LE(result->stats.candidate_texts, result->stats.groups_swept);
    }
  }
  EXPECT_GT(window_bound_only, 10u);
}

TEST_F(Pass1FilterTest, EveryPass1PathMatchesBruteForce) {
  const Corpus corpus = RepeatedTokenCorpus(3);
  const IndexBuildOptions build = Build();
  ASSERT_TRUE(BuildIndexInMemory(corpus, dir_, build).ok());
  auto disk = Searcher::Open(dir_);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  auto memory = Searcher::InMemory(corpus, build);
  ASSERT_TRUE(memory.ok()) << memory.status().ToString();
  const std::vector<std::vector<Token>> queries = Queries(corpus, 5);

  CrossQueryListCache shared(64 << 20);
  uint64_t owner = 0;
  for (double theta : {0.5, 0.75, 1.0}) {
    for (const SearchOptions& options : OptionVariants(theta)) {
      std::vector<SearchResult> reference;
      for (size_t q = 0; q < queries.size(); ++q) {
        SCOPED_TRACE(::testing::Message()
                     << "query " << q << " theta " << theta << " prefix "
                     << options.use_prefix_filter << " cost model "
                     << options.use_cost_model);
        // No cache: the reference every other path must equal bit for bit.
        auto direct = disk->Search(queries[q], options);
        ASSERT_TRUE(direct.ok()) << direct.status().ToString();
        ASSERT_EQ(ExpandRectangles(direct->rectangles),
                  BruteForce(corpus, kK, queries[q], theta));

        // The in-memory source (what an ingest delta searches).
        auto in_memory = memory->Search(queries[q], options);
        ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
        EXPECT_EQ(Answer(*in_memory), Answer(*direct));

        // Cross-query cache: a fresh owner misses, the repeat reads the
        // cached lists in place.
        ++owner;
        for (int pass = 0; pass < 2; ++pass) {
          SearchResult cached;
          ASSERT_TRUE(disk->Search(queries[q], options, nullptr, &shared,
                                   owner, &cached)
                          .ok());
          EXPECT_EQ(Answer(cached), Answer(*direct)) << "pass " << pass;
          if (pass == 1) {
            EXPECT_EQ(cached.stats.shared_cache_hits,
                      cached.stats.short_lists);
          }
        }
        reference.push_back(std::move(*direct));
      }

      // Per-batch cache, sequential and across workers.
      for (size_t threads : {1, 3}) {
        auto batch = disk->SearchBatch(queries, options, 64 << 20, threads);
        ASSERT_TRUE(batch.ok()) << batch.status().ToString();
        ASSERT_EQ(batch->size(), queries.size());
        for (size_t q = 0; q < queries.size(); ++q) {
          EXPECT_EQ(Answer((*batch)[q]), Answer(reference[q]))
              << "batch query " << q << " threads " << threads;
        }
      }
    }
  }
}

/// Wraps a real source and shifts every text id its full-list reads return
/// by `shift`: a list that passes its checks yet names texts the index does
/// not hold.
class ShiftedTextSource : public InvertedListSource {
 public:
  ShiftedTextSource(std::unique_ptr<InvertedListSource> inner, TextId shift)
      : inner_(std::move(inner)), shift_(shift) {}

  using InvertedListSource::ReadList;
  using InvertedListSource::ReadWindowsForText;

  const ListMeta* FindList(Token key) const override {
    return inner_->FindList(key);
  }
  Status ReadList(const ListMeta& meta, std::vector<PostedWindow>* out,
                  uint64_t* io_bytes, const QueryContext* ctx) override {
    const size_t before = out->size();
    NDSS_RETURN_NOT_OK(inner_->ReadList(meta, out, io_bytes, ctx));
    for (size_t i = before; i < out->size(); ++i) (*out)[i].text += shift_;
    return Status::OK();
  }
  Status ReadWindowsForText(const ListMeta& meta, TextId text,
                            std::vector<PostedWindow>* out,
                            uint64_t* io_bytes,
                            const QueryContext* ctx) override {
    return inner_->ReadWindowsForText(meta, text, out, io_bytes, ctx);
  }
  const std::vector<ListMeta>& directory() const override {
    return inner_->directory();
  }
  uint64_t bytes_read() const override { return inner_->bytes_read(); }

 private:
  std::unique_ptr<InvertedListSource> inner_;
  TextId shift_;
};

/// An in-memory searcher over `corpus` whose last function's lists carry
/// text ids shifted past the corpus.
Result<Searcher> SearcherWithBadLastFunction(const Corpus& corpus,
                                             TextId shift) {
  const IndexBuildOptions build = Build();
  IndexMeta meta;
  meta.k = build.k;
  meta.t = build.t;
  meta.seed = build.seed;
  meta.num_texts = corpus.num_texts();
  meta.total_tokens = corpus.total_tokens();
  const SketchScheme scheme = meta.Scheme();
  std::vector<std::unique_ptr<InvertedListSource>> sources;
  for (uint32_t func = 0; func < meta.k; ++func) {
    auto source =
        std::make_unique<InMemoryInvertedIndex>(corpus, scheme, func, meta.t);
    if (func + 1 == meta.k) {
      sources.push_back(
          std::make_unique<ShiftedTextSource>(std::move(source), shift));
    } else {
      sources.push_back(std::move(source));
    }
  }
  return Searcher::FromSources(meta, std::move(sources));
}

TEST_F(Pass1FilterTest, OutOfRangeTextIdIsCorruptionAndDegradesTheFunction) {
  const Corpus corpus = RepeatedTokenCorpus(3);
  const std::vector<std::vector<Token>> queries = Queries(corpus, 5);
  // Shifts just past the corpus and far past it (beyond any counter a
  // thread may have sized for a larger source).
  for (TextId shift : {static_cast<TextId>(corpus.num_texts()), 1u << 30}) {
    SCOPED_TRACE(::testing::Message() << "shift " << shift);
    auto strict = SearcherWithBadLastFunction(corpus, shift);
    ASSERT_TRUE(strict.ok()) << strict.status().ToString();
    SearchOptions options;
    options.theta = 0.75;
    options.use_prefix_filter = false;
    auto failed = strict->Search(queries[0], options);
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.status().IsCorruption()) << failed.status().ToString();
    EXPECT_EQ(strict->degraded_funcs(), 0u);

    // Degraded search drops the function and answers exactly as an index
    // of the k - 1 surviving functions (seeds are chained).
    auto degraded = SearcherWithBadLastFunction(corpus, shift);
    ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
    for (const SearchOptions& variant : OptionVariants(options.theta)) {
      SearchOptions allowed = variant;
      allowed.allow_degraded = true;
      for (const std::vector<Token>& query : queries) {
        auto result = degraded->Search(query, allowed);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->stats.degraded_funcs, 1u);
        EXPECT_EQ(ExpandRectangles(result->rectangles),
                  BruteForce(corpus, kK - 1, query, allowed.theta));
      }
    }
    EXPECT_EQ(degraded->degraded_funcs(), 1u);
  }
}

TEST_F(Pass1FilterTest, FromSourcesValidatesItsArguments) {
  IndexMeta meta;
  meta.k = 2;
  std::vector<std::unique_ptr<InvertedListSource>> one;
  one.push_back(nullptr);
  EXPECT_TRUE(Searcher::FromSources(meta, std::move(one))
                  .status()
                  .IsInvalidArgument());
  std::vector<std::unique_ptr<InvertedListSource>> none(2);
  EXPECT_TRUE(Searcher::FromSources(meta, std::move(none))
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace ndss
