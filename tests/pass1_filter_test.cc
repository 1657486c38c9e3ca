// Pass 1 of the search drops every text found in fewer than beta1 of the
// short lists before running CollisionCount on it. These tests pin that the
// filter is exact on a corpus built to defeat the weaker "group has >= beta1
// windows" bound (repeated tokens put many windows of one text into one
// list), across every pass-1 read path, and that a list naming a text the
// index does not hold is corruption, never an out-of-bounds access.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "baseline/brute_force.h"
#include "common/random.h"
#include "index/index_builder.h"
#include "index/memory_index.h"
#include "query/collision_count.h"
#include "query/list_cache.h"
#include "query/searcher.h"
#include "shard/shard_manifest.h"
#include "shard/sharded_searcher.h"
#include "sketch/sketch_scheme.h"

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
       BruteForceApproxSearch(
           corpus,
           SketchScheme(SketchSchemeId::kIndependent, k, IndexMeta{}.seed),
           query, theta, kT)) {
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
  // A one-shard set over the same index with the server-wide cache on: its
  // batches read through that cache instead of building their own.
  ShardManifest manifest;
  manifest.shard_dirs = {".."};
  ASSERT_TRUE(manifest.Save(dir_ + "/set").ok());
  auto served = ShardedSearcher::Open(dir_ + "/set");
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_TRUE(served->EnableListCache(64 << 20).ok());
  uint64_t server_cache_hits = 0;
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
          ASSERT_TRUE(disk->Search(queries[q], options, nullptr, &cached,
                                   {&shared, owner})
                          .ok());
          EXPECT_EQ(Answer(cached), Answer(*direct)) << "pass " << pass;
          if (pass == 1) {
            EXPECT_EQ(cached.stats.shared_cache_hits,
                      cached.stats.short_lists);
          }
        }
        reference.push_back(std::move(*direct));
      }

      // The batch's own cache, sequential and across workers, then the
      // batch over the server cache.
      for (size_t threads : {1, 3}) {
        auto batch = disk->SearchBatch(queries, options, 64 << 20, threads);
        ASSERT_TRUE(batch.ok()) << batch.status().ToString();
        ASSERT_EQ(batch->size(), queries.size());
        for (size_t q = 0; q < queries.size(); ++q) {
          EXPECT_EQ(Answer((*batch)[q]), Answer(reference[q]))
              << "batch query " << q << " threads " << threads;
          EXPECT_EQ((*batch)[q].stats.shared_cache_hits, 0u);
        }
      }
      auto batch =
          served->SearchBatch(queries, options, BatchLimits{}, 64 << 20, 3);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      for (size_t q = 0; q < queries.size(); ++q) {
        ASSERT_TRUE(batch->statuses[q].ok()) << batch->statuses[q].ToString();
        EXPECT_EQ(Answer(batch->results[q]), Answer(reference[q]))
            << "server-cache batch query " << q;
        EXPECT_EQ(batch->results[q].stats.cache_hits, 0u);
        server_cache_hits += batch->results[q].stats.shared_cache_hits;
      }
    }
  }
  EXPECT_GT(server_cache_hits, 0u) << "the server cache served nothing";
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

/// Serves one fixed list per hash function whatever key the query's
/// sketch asks for, so a test chooses the exact pass-1 list set. An empty
/// list stands for a key the index does not hold.
class FixedListSource : public InvertedListSource {
 public:
  explicit FixedListSource(std::vector<PostedWindow> list)
      : list_(std::move(list)) {
    if (!list_.empty()) {
      ListMeta meta;
      meta.count = list_.size();
      directory_.push_back(meta);
    }
  }

  using InvertedListSource::ReadList;
  using InvertedListSource::ReadWindowsForText;

  const ListMeta* FindList(Token) const override {
    return directory_.empty() ? nullptr : &directory_[0];
  }
  Status ReadList(const ListMeta&, std::vector<PostedWindow>* out, uint64_t*,
                  const QueryContext*) override {
    out->insert(out->end(), list_.begin(), list_.end());
    return Status::OK();
  }
  Status ReadWindowsForText(const ListMeta&, TextId text,
                            std::vector<PostedWindow>* out, uint64_t*,
                            const QueryContext*) override {
    for (const PostedWindow& w : list_) {
      if (w.text == text) out->push_back(w);
    }
    return Status::OK();
  }
  const std::vector<ListMeta>& directory() const override {
    return directory_;
  }
  uint64_t bytes_read() const override { return 0; }

 private:
  std::vector<PostedWindow> list_;
  std::vector<ListMeta> directory_;
};

constexpr uint32_t kListTexts = 30;
constexpr uint32_t kListTextLength = 40;

Result<Searcher> FixedListSearcher(
    const std::vector<std::vector<PostedWindow>>& lists) {
  IndexMeta meta;
  meta.k = static_cast<uint32_t>(lists.size());
  meta.t = 1;
  meta.num_texts = kListTexts;
  std::vector<std::unique_ptr<InvertedListSource>> sources;
  for (const std::vector<PostedWindow>& list : lists) {
    sources.push_back(std::make_unique<FixedListSource>(list));
  }
  return Searcher::FromSources(meta, std::move(sources));
}

/// Appends 1-2 pairwise disjoint windows of `text` to `list`, as one hash
/// function's compact windows of a text are.
void AddWindows(TextId text, Rng* rng, std::vector<PostedWindow>* list) {
  uint32_t l = static_cast<uint32_t>(rng->Uniform(12));
  const uint64_t windows = 1 + rng->Uniform(2);
  for (uint64_t i = 0; i < windows && l < kListTextLength; ++i) {
    const uint32_t r = std::min<uint32_t>(
        kListTextLength - 1, l + 4 + static_cast<uint32_t>(rng->Uniform(14)));
    const uint32_t c = l + static_cast<uint32_t>(rng->Uniform(r - l + 1));
    list->push_back({text, l, c, r});
    l = r + 1 + static_cast<uint32_t>(rng->Uniform(4));
  }
}

/// A seeded random list per function: each text joins with probability
/// `density`, except that texts below `everywhere` join every list with
/// one shared window.
std::vector<std::vector<PostedWindow>> RandomLists(uint32_t k, double density,
                                                   uint32_t everywhere,
                                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<PostedWindow>> lists(k);
  for (std::vector<PostedWindow>& list : lists) {
    for (TextId text = 0; text < kListTexts; ++text) {
      if (text < everywhere) {
        list.push_back({text, 5, 10, 15});
      } else if (rng.NextBool(density)) {
        AddWindows(text, &rng, &list);
      }
    }
  }
  return lists;
}

/// The unfiltered pass 1: every text's windows from the non-empty lists,
/// gathered in list order, stably sorted by l and swept at `beta`.
std::vector<TextMatchRectangle> SweepEveryText(
    const std::vector<std::vector<PostedWindow>>& lists, uint32_t beta) {
  std::vector<TextMatchRectangle> out;
  for (TextId text = 0; text < kListTexts; ++text) {
    std::vector<PostedWindow> windows;
    for (const std::vector<PostedWindow>& list : lists) {
      for (const PostedWindow& w : list) {
        if (w.text == text) windows.push_back(w);
      }
    }
    std::stable_sort(windows.begin(), windows.end(),
                     [](const PostedWindow& a, const PostedWindow& b) {
                       return a.l < b.l;
                     });
    std::vector<MatchRectangle> rects;
    EXPECT_TRUE(CollisionCount(windows, beta, &rects).ok());
    for (const MatchRectangle& r : rects) out.push_back({text, r});
  }
  return out;
}

/// Texts found in at least `min_lists` of `lists`, by a dense count.
uint64_t CountTextsInAtLeast(
    const std::vector<std::vector<PostedWindow>>& lists, uint32_t min_lists) {
  std::vector<uint32_t> count(kListTexts, 0);
  for (const std::vector<PostedWindow>& list : lists) {
    std::set<TextId> texts;
    for (const PostedWindow& w : list) texts.insert(w.text);
    for (TextId text : texts) ++count[text];
  }
  return std::count_if(count.begin(), count.end(),
                       [&](uint32_t c) { return c >= min_lists; });
}

/// Distinct texts of the L - beta + 1 shortest non-empty lists (ties in
/// list order), or 0 when fewer than beta lists are non-empty.
uint64_t PrefixTexts(const std::vector<std::vector<PostedWindow>>& lists,
                     uint32_t beta) {
  std::vector<const std::vector<PostedWindow>*> present;
  for (const std::vector<PostedWindow>& list : lists) {
    if (!list.empty()) present.push_back(&list);
  }
  if (present.size() < beta) return 0;
  std::stable_sort(present.begin(), present.end(),
                   [](const auto* a, const auto* b) {
                     return a->size() < b->size();
                   });
  std::set<TextId> texts;
  for (size_t i = 0; i < present.size() - beta + 1; ++i) {
    for (const PostedWindow& w : *present[i]) texts.insert(w.text);
  }
  return texts.size();
}

std::vector<RectKey> RectKeys(const std::vector<TextMatchRectangle>& rects) {
  std::vector<RectKey> keys;
  for (const TextMatchRectangle& tr : rects) {
    keys.emplace_back(tr.text, tr.rect.x_begin, tr.rect.x_end,
                      tr.rect.y_begin, tr.rect.y_end, tr.rect.collisions);
  }
  return keys;
}

/// Searches `lists` with prefix filtering off (every non-empty list is a
/// pass-1 list, beta1 = beta) and checks the answer and the filter's
/// counters against the unfiltered sweep and dense counts. Returns the
/// search result.
SearchResult ExpectFilterIsExact(
    const std::vector<std::vector<PostedWindow>>& lists, double theta) {
  auto searcher = FixedListSearcher(lists);
  EXPECT_TRUE(searcher.ok()) << searcher.status().ToString();
  if (!searcher.ok()) return {};
  SearchOptions options;
  options.theta = theta;
  options.use_prefix_filter = false;
  options.merge_matches = false;
  const uint32_t beta = static_cast<uint32_t>(
      std::ceil(theta * static_cast<double>(lists.size())));
  const std::vector<Token> query = {1, 2, 3, 4, 5, 6, 7, 8};
  auto result = searcher->Search(query, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  const std::vector<TextMatchRectangle> expected = SweepEveryText(lists, beta);
  EXPECT_EQ(RectKeys(result->rectangles), RectKeys(expected));
  EXPECT_EQ(result->stats.groups_swept, CountTextsInAtLeast(lists, beta));
  EXPECT_EQ(result->stats.pass1_candidates, PrefixTexts(lists, beta));
  EXPECT_LE(result->stats.groups_swept, result->stats.pass1_candidates);
  return std::move(*result);
}

TEST_F(Pass1FilterTest, RandomListSetsAtTheEdgesMatchAnUnfilteredSweep) {
  constexpr uint32_t kLists = 8;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    std::vector<std::vector<PostedWindow>> lists =
        RandomLists(kLists, 0.4, 3, seed);
    // beta1 = 1: every list is a prefix list; no binary search.
    EXPECT_FALSE(ExpectFilterIsExact(lists, 0.1).rectangles.empty())
        << "beta1 = 1";
    // Mid thresholds: a prefix of 2-5 lists and binary searches.
    for (double theta : {0.5, 0.625, 0.875}) {
      ExpectFilterIsExact(lists, theta);
    }
    // L = beta1: one prefix list, every other list binary-searched.
    EXPECT_FALSE(ExpectFilterIsExact(lists, 1.0).rectangles.empty())
        << "L = beta1";

    // L < beta1: with three keys absent no text can reach beta1.
    std::vector<std::vector<PostedWindow>> sparse = lists;
    for (size_t i = 0; i < 3; ++i) sparse[i * 3].clear();
    EXPECT_EQ(ExpectFilterIsExact(sparse, 0.75).stats.groups_swept, 0u)
        << "L < beta1";
    ExpectFilterIsExact(sparse, 0.5);

    // Equal-size lists: the size order is the list order.
    std::vector<std::vector<PostedWindow>> equal(kLists);
    Rng rng(seed);
    for (std::vector<PostedWindow>& list : equal) {
      for (TextId text = 0; text < kListTexts; text += 3) {
        list.push_back({text + static_cast<TextId>(rng.Uniform(3)),
                        static_cast<uint32_t>(rng.Uniform(10)), 12, 20});
      }
    }
    for (double theta : {0.25, 0.5, 0.75, 1.0}) {
      ExpectFilterIsExact(equal, theta);
    }
  }
}

TEST_F(Pass1FilterTest, SurvivorOnlyInTheLongestListsIsFound) {
  // Lists of strictly increasing size; text 0 sits only in the beta
  // longest ones, with one shared window. The L - beta + 1 shortest lists
  // hold one of them, so text 0 enters through the last prefix list and is
  // found by binary search in the rest.
  constexpr uint32_t kLists = 8;
  for (uint32_t beta = 1; beta <= kLists; ++beta) {
    SCOPED_TRACE(::testing::Message() << "beta " << beta);
    std::vector<std::vector<PostedWindow>> lists(kLists);
    for (uint32_t list = 0; list < kLists; ++list) {
      if (list >= kLists - beta) lists[list].push_back({0, 5, 10, 15});
      // `list` filler texts found in this list only, so the sizes differ.
      for (uint32_t i = 0; i < list; ++i) {
        lists[list].push_back({1 + list * (list - 1) / 2 + i, 0, 1, 2});
      }
    }
    const SearchResult result =
        ExpectFilterIsExact(lists, static_cast<double>(beta) / kLists);
    ASSERT_FALSE(result.rectangles.empty());
    EXPECT_EQ(result.rectangles[0].text, 0u);
  }
}

/// A list sorted like a real one, then corrupted at its end: a text id the
/// index does not hold, or one smaller than the text before it.
std::vector<PostedWindow> CorruptList(std::vector<PostedWindow> list,
                                      bool out_of_range) {
  list.push_back({out_of_range ? kListTexts : list.back().text - 1, 0, 1, 2});
  return list;
}

TEST_F(Pass1FilterTest, BadTextIdInANonPrefixListIsCorruptionOnEveryPath) {
  // theta 0.75 over 8 lists: beta1 = 6, so only the 3 shortest lists are
  // prefix lists. The corrupt list is the longest; a filter that checks
  // only the lists it walks would never look at its tail.
  constexpr uint32_t kLists = 8;
  std::vector<std::vector<PostedWindow>> lists =
      RandomLists(kLists - 1, 0.3, 4, 17);
  std::vector<PostedWindow> longest;
  for (TextId text = 0; text < kListTexts; ++text) {
    longest.push_back({text, 5, 10, 15});
  }
  SearchOptions options;
  options.theta = 0.75;
  options.use_prefix_filter = false;
  options.merge_matches = false;
  const std::vector<Token> query = {1, 2, 3, 4, 5, 6, 7, 8};
  // Degraded searches drop the corrupt function: the reference is the
  // unfiltered sweep of the other seven lists at beta = ceil(0.75 * 7).
  SearchOptions degraded = options;
  degraded.allow_degraded = true;
  const std::vector<RectKey> expected = RectKeys(SweepEveryText(lists, 6));
  ASSERT_FALSE(expected.empty());

  for (bool out_of_range : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "out of range " << out_of_range);
    std::vector<std::vector<PostedWindow>> bad = lists;
    bad.push_back(CorruptList(longest, out_of_range));
    for (int path = 0; path < 3; ++path) {
      SCOPED_TRACE(::testing::Message()
                   << "path " << (path == 0   ? "direct"
                                  : path == 1 ? "cross-query cache"
                                              : "per-batch cache"));
      // Runs the query once on `searcher` through this path.
      CrossQueryListCache shared(64 << 20);
      uint64_t owner = 0;
      auto run = [&](Searcher& searcher, const SearchOptions& variant,
                     SearchResult* result) -> Status {
        if (path == 0) return searcher.Search(query, variant, nullptr, result);
        if (path == 1) {
          return searcher.Search(query, variant, nullptr, result,
                                 {&shared, ++owner});
        }
        auto batch = searcher.SearchBatch({query, query}, variant,
                                          BatchLimits{}, 64 << 20, 2);
        if (!batch.ok()) return batch.status();
        *result = batch->results[0];
        return batch->statuses[0];
      };
      auto strict = FixedListSearcher(bad);
      ASSERT_TRUE(strict.ok()) << strict.status().ToString();
      for (int repeat = 0; repeat < 2; ++repeat) {
        SearchResult result;
        const Status status = run(*strict, options, &result);
        EXPECT_TRUE(status.IsCorruption()) << status.ToString();
      }
      EXPECT_EQ(strict->degraded_funcs(), 0u);

      auto tolerant = FixedListSearcher(bad);
      ASSERT_TRUE(tolerant.ok()) << tolerant.status().ToString();
      SearchResult result;
      const Status status = run(*tolerant, degraded, &result);
      ASSERT_TRUE(status.ok()) << status.ToString();
      EXPECT_EQ(result.stats.degraded_funcs, 1u);
      EXPECT_EQ(RectKeys(result.rectangles), expected);
      EXPECT_EQ(tolerant->degraded_funcs(), 1u);
    }
  }
}

TEST_F(Pass1FilterTest, EdgeThresholdsMatchBruteForce) {
  // theta 1/8 makes beta1 = 1 (every pass-1 list is a prefix list); theta
  // 1 makes L = beta1 (one prefix list) and, on queries carrying tokens
  // outside the vocabulary, L < beta1 (their keys have no list).
  const Corpus corpus = RepeatedTokenCorpus(11);
  const IndexBuildOptions build = Build();
  ASSERT_TRUE(BuildIndexInMemory(corpus, dir_, build).ok());
  auto disk = Searcher::Open(dir_);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  std::vector<std::vector<Token>> queries = Queries(corpus, 13);
  for (size_t q = 0; q < 4; ++q) {
    std::vector<Token> query = queries[q];
    for (Token extra = 0; extra < 6; ++extra) {
      query.push_back(kVocab + 100 + extra);
    }
    queries.push_back(std::move(query));
  }
  CrossQueryListCache shared(64 << 20);
  uint64_t owner = 0;
  bool fewer_lists_than_beta = false;
  bool one_prefix_list = false;
  for (double theta : {0.125, 1.0}) {
    SearchOptions options;
    options.theta = theta;
    options.use_prefix_filter = false;
    auto batch = disk->SearchBatch(queries, options, 64 << 20, 2);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (size_t q = 0; q < queries.size(); ++q) {
      SCOPED_TRACE(::testing::Message() << "query " << q << " theta "
                                        << theta);
      const std::set<SequenceKey> expected =
          BruteForce(corpus, kK, queries[q], theta);
      auto direct = disk->Search(queries[q], options);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      EXPECT_EQ(ExpandRectangles(direct->rectangles), expected);
      SearchResult cached;
      ASSERT_TRUE(disk->Search(queries[q], options, nullptr, &cached,
                               {&shared, ++owner})
                      .ok());
      EXPECT_EQ(Answer(cached), Answer(*direct));
      EXPECT_EQ(Answer((*batch)[q]), Answer(*direct));
      const uint32_t lists = direct->stats.short_lists;
      const uint32_t beta = static_cast<uint32_t>(std::ceil(theta * kK));
      if (lists < beta) {
        fewer_lists_than_beta = true;
        EXPECT_TRUE(expected.empty());
        EXPECT_EQ(direct->stats.pass1_candidates, 0u);
      }
      if (lists == beta) one_prefix_list = true;
    }
  }
  EXPECT_TRUE(fewer_lists_than_beta);
  EXPECT_TRUE(one_prefix_list);
}

}  // namespace
}  // namespace ndss
