// ShardedSearcher correctness: scatter-gather over a shard set must be
// bit-identical to a single Searcher over MergeIndexes of the same shards —
// including under governance and with a fault-injected shard dropped — and
// attach/detach must renumber exactly like re-merging.

#include "shard/sharded_searcher.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/file_io.h"
#include "corpusgen/synthetic.h"
#include "index/index_builder.h"
#include "index/index_format.h"
#include "index/index_merger.h"
#include "query/searcher.h"

namespace ndss {
namespace {

class ShardedSearcherTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kNumTexts = 120;
  static constexpr uint32_t kShardTexts = 40;  // 3 shards

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ndss_sharded_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(CreateDirectories(dir_).ok());

    SyntheticCorpusOptions corpus_options;
    corpus_options.num_texts = kNumTexts;
    corpus_options.vocab_size = 400;
    corpus_options.plant_rate = 0.35;
    corpus_options.seed = 91;
    sc_ = GenerateSyntheticCorpus(corpus_options);

    build_.k = 5;
    build_.t = 20;
    for (uint32_t s = 0; s < 3; ++s) {
      Corpus shard;
      for (uint32_t i = s * kShardTexts; i < (s + 1) * kShardTexts; ++i) {
        shard.AddText(sc_.corpus.text(i));
      }
      ASSERT_TRUE(BuildIndexInMemory(shard, ShardDir(s), build_).ok());
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string ShardDir(uint32_t s) const {
    return dir_ + "/s" + std::to_string(s);
  }
  std::string SetDir() const { return dir_ + "/set"; }

  void WriteManifest(const std::vector<std::string>& shard_dirs) {
    ShardManifest manifest;
    manifest.shard_dirs = shard_dirs;
    ASSERT_TRUE(manifest.Save(SetDir()).ok());
  }

  /// A Searcher over MergeIndexes(shard_dirs) — the equivalence baseline.
  Searcher MergedBaseline(const std::vector<std::string>& shard_dirs) {
    static int counter = 0;
    const std::string out = dir_ + "/merged" + std::to_string(counter++);
    auto stats = MergeIndexes(shard_dirs, out, IndexMergeOptions{});
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    auto searcher = Searcher::Open(out);
    EXPECT_TRUE(searcher.ok()) << searcher.status().ToString();
    return std::move(*searcher);
  }

  std::vector<std::vector<Token>> MakeQueries(size_t count) const {
    Rng rng(5);
    std::vector<std::vector<Token>> queries;
    for (size_t q = 0; q < count; ++q) {
      const TextId source = static_cast<TextId>(rng.Uniform(kNumTexts));
      const auto text = sc_.corpus.text(source);
      const uint32_t length =
          std::min<uint32_t>(35, static_cast<uint32_t>(text.size()));
      queries.push_back(PerturbSequence(text, 0, length, 0.1, 400, rng));
    }
    return queries;
  }

  /// Element-wise bit-identity of matches (stats legitimately differ: list
  /// classification is per-shard).
  static void ExpectSameMatches(const SearchResult& expected,
                                const SearchResult& actual,
                                const std::string& label) {
    ASSERT_EQ(expected.rectangles.size(), actual.rectangles.size()) << label;
    for (size_t i = 0; i < expected.rectangles.size(); ++i) {
      EXPECT_EQ(expected.rectangles[i].text, actual.rectangles[i].text)
          << label << " rect " << i;
      EXPECT_TRUE(expected.rectangles[i].rect == actual.rectangles[i].rect)
          << label << " rect " << i;
    }
    ASSERT_EQ(expected.spans.size(), actual.spans.size()) << label;
    for (size_t i = 0; i < expected.spans.size(); ++i) {
      EXPECT_EQ(expected.spans[i].text, actual.spans[i].text) << label;
      EXPECT_EQ(expected.spans[i].begin, actual.spans[i].begin) << label;
      EXPECT_EQ(expected.spans[i].end, actual.spans[i].end) << label;
      EXPECT_EQ(expected.spans[i].collisions, actual.spans[i].collisions)
          << label;
      EXPECT_EQ(expected.spans[i].estimated_similarity,
                actual.spans[i].estimated_similarity)
          << label;
    }
  }

  /// Drops every match of texts [begin, end) from `result` — the expected
  /// answer when the shard holding that id range goes dark.
  static SearchResult EraseTextRange(SearchResult result, TextId begin,
                                     TextId end) {
    std::erase_if(result.rectangles, [&](const TextMatchRectangle& r) {
      return r.text >= begin && r.text < end;
    });
    std::erase_if(result.spans, [&](const MatchSpan& s) {
      return s.text >= begin && s.text < end;
    });
    return result;
  }

  /// XORs the posting region of every inverted-index file of `shard_dir`:
  /// the shard opens but every list read fails its CRC (the same injection
  /// failure_injection_test uses).
  void CorruptShardLists(const std::string& shard_dir) {
    for (uint32_t func = 0; func < build_.k; ++func) {
      CorruptFunctionLists(shard_dir, func);
    }
  }

  /// The same injection for one hash function's file only.
  void CorruptFunctionLists(const std::string& shard_dir, uint32_t func) {
    const std::string path = IndexMeta::InvertedIndexPath(shard_dir, func);
    auto data = ReadFileToString(path);
    ASSERT_TRUE(data.ok());
    const uint64_t directory_offset = DecodeFixed64(
        data->data() + data->size() - index_format::kFooterSize + 16);
    for (uint64_t i = index_format::kHeaderSize; i < directory_offset; ++i) {
      (*data)[i] ^= 0x5a;
    }
    ASSERT_TRUE(WriteStringToFile(path, *data).ok());
  }

  std::string dir_;
  SyntheticCorpus sc_;
  IndexBuildOptions build_;
};

TEST_F(ShardedSearcherTest, BitIdenticalToMergedIndex) {
  WriteManifest({"../s0", "../s1", "../s2"});  // relative entries resolve
  auto sharded = ShardedSearcher::Open(SetDir());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  Searcher merged = MergedBaseline({ShardDir(0), ShardDir(1), ShardDir(2)});

  EXPECT_EQ(sharded->meta().num_texts, kNumTexts);
  EXPECT_EQ(sharded->meta().k, build_.k);

  for (const bool prefix_filter : {true, false}) {
    SearchOptions options;
    options.theta = 0.6;
    options.use_prefix_filter = prefix_filter;
    size_t total_spans = 0;
    for (const auto& query : MakeQueries(12)) {
      auto expected = merged.Search(query, options);
      auto actual = sharded->Search(query, options);
      ASSERT_TRUE(expected.ok() && actual.ok());
      ExpectSameMatches(*expected, *actual,
                        prefix_filter ? "prefix" : "no-prefix");
      EXPECT_EQ(actual->stats.degraded_shards, 0u);
      total_spans += expected->spans.size();
    }
    EXPECT_GT(total_spans, 0u) << "vacuous equivalence";
  }
}

TEST_F(ShardedSearcherTest, BatchBitIdenticalToMergedIndex) {
  WriteManifest({ShardDir(0), ShardDir(1), ShardDir(2)});
  auto sharded = ShardedSearcher::Open(SetDir());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  Searcher merged = MergedBaseline({ShardDir(0), ShardDir(1), ShardDir(2)});

  const auto queries = MakeQueries(10);
  SearchOptions options;
  options.theta = 0.6;
  auto expected = merged.SearchBatch(queries, options);
  auto actual = sharded->SearchBatch(queries, options, 64 << 20, 2);
  ASSERT_TRUE(expected.ok() && actual.ok()) << actual.status().ToString();
  ASSERT_EQ(expected->size(), actual->size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ExpectSameMatches((*expected)[q], (*actual)[q],
                      "query " + std::to_string(q));
  }

  // A repeated query reads its lists from the batch's own cache, which
  // every shard shares under its own owner id: hits count as cache_hits,
  // never as server-cache hits. Budget 0 builds no cache at all.
  std::vector<std::vector<Token>> repeated = queries;
  repeated.push_back(queries.front());
  for (const uint64_t budget : {uint64_t{64} << 20, uint64_t{0}}) {
    auto batch = sharded->SearchBatch(repeated, options, budget, 2);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    uint64_t cache_hits = 0;
    for (size_t q = 0; q < repeated.size(); ++q) {
      ExpectSameMatches((*expected)[q % queries.size()], (*batch)[q],
                        "repeated query " + std::to_string(q));
      cache_hits += (*batch)[q].stats.cache_hits;
      EXPECT_EQ((*batch)[q].stats.shared_cache_hits, 0u);
    }
    if (budget > 0) {
      EXPECT_GT(cache_hits, 0u);
    } else {
      EXPECT_EQ(cache_hits, 0u);
    }
  }
}

TEST_F(ShardedSearcherTest, GovernedSearchStaysBitIdentical) {
  WriteManifest({ShardDir(0), ShardDir(1), ShardDir(2)});
  auto sharded = ShardedSearcher::Open(SetDir());
  ASSERT_TRUE(sharded.ok());
  Searcher merged = MergedBaseline({ShardDir(0), ShardDir(1), ShardDir(2)});

  SearchOptions options;
  options.theta = 0.6;
  for (const auto& query : MakeQueries(8)) {
    // Permissive governance: a 1-minute deadline and a 1 GB budget bind
    // nothing, so the answer must not change.
    QueryContext ctx = QueryContext::WithTimeout(60'000'000);
    MemoryBudget budget(1ull << 30);
    ctx.set_memory_budget(&budget);
    SearchResult governed;
    ASSERT_TRUE(sharded->Search(query, options, &ctx, &governed).ok());
    auto expected = merged.Search(query, options);
    ASSERT_TRUE(expected.ok());
    ExpectSameMatches(*expected, governed, "governed");
    EXPECT_GT(governed.stats.peak_memory_bytes, 0u);
  }
}

TEST_F(ShardedSearcherTest, GovernedBatchStaysBitIdentical) {
  WriteManifest({ShardDir(0), ShardDir(1), ShardDir(2)});
  auto sharded = ShardedSearcher::Open(SetDir());
  ASSERT_TRUE(sharded.ok());
  Searcher merged = MergedBaseline({ShardDir(0), ShardDir(1), ShardDir(2)});

  const auto queries = MakeQueries(10);
  SearchOptions options;
  options.theta = 0.6;
  BatchLimits limits;
  limits.batch_timeout_micros = 60'000'000;
  limits.query_timeout_micros = 60'000'000;
  limits.max_inflight_bytes = 1ull << 30;
  auto expected = merged.SearchBatch(queries, options);
  auto actual = sharded->SearchBatch(queries, options, limits, 64 << 20, 2);
  ASSERT_TRUE(expected.ok() && actual.ok()) << actual.status().ToString();
  EXPECT_EQ(actual->stats.queries_ok, queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_TRUE(actual->statuses[q].ok());
    ExpectSameMatches((*expected)[q], actual->results[q],
                      "query " + std::to_string(q));
  }

  // max_query_bytes bounds one query across every shard it scatters over.
  BatchLimits tiny;
  tiny.max_query_bytes = 1;
  auto exhausted = sharded->SearchBatch(queries, options, tiny, 64 << 20, 2);
  ASSERT_TRUE(exhausted.ok()) << exhausted.status().ToString();
  EXPECT_EQ(exhausted->stats.queries_resource_exhausted, queries.size());
  for (const Status& status : exhausted->statuses) {
    EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
  }
}

TEST_F(ShardedSearcherTest, BothFanOutPathsStayBitIdentical) {
  // A lone caller offers pool helpers; concurrent callers run every shard
  // on their own thread. Either way the answer must be the merged index's.
  WriteManifest({ShardDir(0), ShardDir(1), ShardDir(2)});
  ShardedSearcherOptions sharded_options;
  sharded_options.num_threads = 2;
  auto sharded = ShardedSearcher::Open(SetDir(), sharded_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  Searcher merged = MergedBaseline({ShardDir(0), ShardDir(1), ShardDir(2)});

  SearchOptions options;
  options.theta = 0.6;
  const auto queries = MakeQueries(12);
  std::vector<SearchResult> expected;
  size_t total_spans = 0;
  for (const auto& query : queries) {
    auto answer = merged.Search(query, options);
    ASSERT_TRUE(answer.ok());
    total_spans += answer->spans.size();
    expected.push_back(std::move(*answer));
  }
  ASSERT_GT(total_spans, 0u) << "vacuous equivalence";

  // Runs every query ungoverned and governed (a permissive context).
  auto run_all = [&](const std::string& label) {
    for (size_t q = 0; q < queries.size(); ++q) {
      auto plain = sharded->Search(queries[q], options);
      ASSERT_TRUE(plain.ok()) << plain.status().ToString();
      ExpectSameMatches(expected[q], *plain, label + " ungoverned");
      QueryContext ctx = QueryContext::WithTimeout(60'000'000);
      MemoryBudget budget(1ull << 30);
      ctx.set_memory_budget(&budget);
      SearchResult governed;
      ASSERT_TRUE(sharded->Search(queries[q], options, &ctx, &governed).ok());
      ExpectSameMatches(expected[q], governed, label + " governed");
    }
  };
  run_all("one caller");

  // 8 callers over a 2-thread pool: scatters overlap, so most run inline.
  std::vector<std::thread> callers;
  for (int t = 0; t < 8; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        run_all("caller " + std::to_string(t));
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
}

TEST_F(ShardedSearcherTest, SharedSketchKeepsDegradedAnswers) {
  // One sketch per query, computed by the ShardedSearcher and shared by
  // every shard, must answer exactly as each shard computing its own —
  // also when shards search with fewer functions: shard 1 loses function 2
  // mid-query (a corrupt list), shard 2 loses function 0 at open.
  WriteManifest({ShardDir(0), ShardDir(1), ShardDir(2)});
  CorruptFunctionLists(ShardDir(1), 2);
  std::filesystem::remove(IndexMeta::InvertedIndexPath(ShardDir(2), 0));

  SearcherOptions degraded_open;
  degraded_open.allow_degraded = true;
  ShardedSearcherOptions sharded_options;
  sharded_options.shard_options = degraded_open;
  auto sharded = ShardedSearcher::Open(SetDir(), sharded_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  std::vector<Searcher> own_sketch;
  for (uint32_t s = 0; s < 3; ++s) {
    auto searcher = Searcher::Open(ShardDir(s), degraded_open);
    ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
    own_sketch.push_back(std::move(*searcher));
  }

  SearchOptions options;
  options.theta = 0.6;
  options.allow_degraded = true;
  size_t total_spans = 0;
  for (const auto& query : MakeQueries(12)) {
    // The expected answer: each shard on its own, ids shifted by offset.
    SearchResult expected;
    for (uint32_t s = 0; s < 3; ++s) {
      auto part = own_sketch[s].Search(query, options);
      ASSERT_TRUE(part.ok()) << part.status().ToString();
      for (TextMatchRectangle r : part->rectangles) {
        r.text += s * kShardTexts;
        expected.rectangles.push_back(r);
      }
      for (MatchSpan span : part->spans) {
        span.text += s * kShardTexts;
        expected.spans.push_back(span);
      }
    }
    auto actual = sharded->Search(query, options);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ExpectSameMatches(expected, *actual, "shared sketch");
    EXPECT_EQ(actual->stats.degraded_funcs, 1u);
    total_spans += actual->spans.size();
  }
  EXPECT_GT(total_spans, 0u) << "vacuous equivalence";

  // A Searcher handed a sketch answers as it would computing its own, and
  // refuses a sketch of the wrong family size.
  const std::vector<Token> query = MakeQueries(1).front();
  const MinHashSketch sketch = ComputeSketch(
      sharded->meta().Scheme(), query.data(), query.size());
  auto own = own_sketch[1].Search(query, options);
  ASSERT_TRUE(own.ok());
  SearchResult shared;
  ASSERT_TRUE(own_sketch[1]
                  .Search(query, options, nullptr, &shared,
                          ScatterInputs{.sketch = &sketch})
                  .ok());
  ExpectSameMatches(*own, shared, "sketch handed in");
  MinHashSketch short_sketch = sketch;
  short_sketch.argmin_tokens.pop_back();
  short_sketch.min_hashes.pop_back();
  EXPECT_TRUE(own_sketch[1]
                  .Search(query, options, nullptr, &shared,
                          ScatterInputs{.sketch = &short_sketch})
                  .IsInvalidArgument());
}

TEST_F(ShardedSearcherTest, ExpiredDeadlineFailsWithPartialStats) {
  WriteManifest({ShardDir(0), ShardDir(1), ShardDir(2)});
  auto sharded = ShardedSearcher::Open(SetDir());
  ASSERT_TRUE(sharded.ok());

  QueryContext ctx;
  ctx.set_deadline(QueryContext::Clock::now() -
                   std::chrono::milliseconds(10));
  SearchOptions options;
  options.theta = 0.6;
  SearchResult result;
  const auto queries = MakeQueries(1);
  const Status status =
      sharded->Search(queries.front(), options, &ctx, &result);
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  // The partial-stats contract: the result carries what was measured, even
  // though the answer is incomplete.
  EXPECT_GT(result.stats.wall_seconds, 0.0);
}

TEST_F(ShardedSearcherTest, CancelFlagPropagatesToShards) {
  WriteManifest({ShardDir(0), ShardDir(1), ShardDir(2)});
  auto sharded = ShardedSearcher::Open(SetDir());
  ASSERT_TRUE(sharded.ok());

  std::atomic<bool> cancel{true};
  QueryContext ctx;
  ctx.set_cancel_flag(&cancel);
  SearchOptions options;
  options.theta = 0.6;
  SearchResult result;
  const auto queries = MakeQueries(1);
  const Status status =
      sharded->Search(queries.front(), options, &ctx, &result);
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
}

TEST_F(ShardedSearcherTest, CorruptShardIsDroppedAndSurvivorsStayExact) {
  WriteManifest({ShardDir(0), ShardDir(1), ShardDir(2)});
  Searcher merged = MergedBaseline({ShardDir(0), ShardDir(1), ShardDir(2)});
  CorruptShardLists(ShardDir(1));

  ShardedSearcherOptions sharded_options;
  sharded_options.allow_shard_drop = true;
  auto sharded = ShardedSearcher::Open(SetDir(), sharded_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  SearchOptions options;
  options.theta = 0.6;
  bool shard1_had_matches = false;
  for (const auto& query : MakeQueries(12)) {
    auto actual = sharded->Search(query, options);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    auto full = merged.Search(query, options);
    ASSERT_TRUE(full.ok());
    for (const MatchSpan& span : full->spans) {
      shard1_had_matches |=
          span.text >= kShardTexts && span.text < 2 * kShardTexts;
    }
    // The dropped shard keeps its id range: survivors' global ids must not
    // shift, so the answer is the merged answer minus shard 1's texts.
    ExpectSameMatches(EraseTextRange(*full, kShardTexts, 2 * kShardTexts),
                      *actual, "degraded");
    EXPECT_EQ(actual->stats.degraded_shards, 1u);
  }
  EXPECT_TRUE(shard1_had_matches) << "vacuous drop test";

  // A batch over the faulted set: every query is answered by the
  // survivors and counts as degraded.
  const auto queries = MakeQueries(12);
  auto batch = sharded->SearchBatch(queries, options, BatchLimits{},
                                    64 << 20, 2);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->stats.queries_degraded, queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(batch->statuses[q].ok()) << batch->statuses[q].ToString();
    auto full = merged.Search(queries[q], options);
    ASSERT_TRUE(full.ok());
    ExpectSameMatches(EraseTextRange(*full, kShardTexts, 2 * kShardTexts),
                      batch->results[q], "degraded batch");
    EXPECT_EQ(batch->results[q].stats.degraded_shards, 1u);
  }

  const auto shards = sharded->shards();
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_FALSE(shards[0].dropped);
  EXPECT_TRUE(shards[1].dropped);
  EXPECT_FALSE(shards[2].dropped);
}

TEST_F(ShardedSearcherTest, BatchOverAnAllDroppedSetFailsTheCall) {
  WriteManifest({ShardDir(1)});
  CorruptShardLists(ShardDir(1));
  ShardedSearcherOptions sharded_options;
  sharded_options.allow_shard_drop = true;
  auto sharded = ShardedSearcher::Open(SetDir(), sharded_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  SearchOptions options;
  options.theta = 0.6;
  const auto queries = MakeQueries(4);
  // The first search reads a corrupt list and drops the only shard.
  auto search = sharded->Search(queries[0], options);
  ASSERT_TRUE(search.status().IsCorruption()) << search.status().ToString();
  ASSERT_TRUE(sharded->shards()[0].dropped);

  // With nothing left to run, a batch fails as a whole, governed or not,
  // rather than answering OK with a Corruption per query.
  auto governed =
      sharded->SearchBatch(queries, options, BatchLimits{}, 64 << 20, 2);
  EXPECT_TRUE(governed.status().IsCorruption())
      << governed.status().ToString();
  auto plain = sharded->SearchBatch(queries, options, 64 << 20, 2);
  EXPECT_TRUE(plain.status().IsCorruption()) << plain.status().ToString();
}

TEST_F(ShardedSearcherTest, UnopenableShardIsDroppedAtOpen) {
  WriteManifest({ShardDir(0), ShardDir(1), ShardDir(2)});
  Searcher merged = MergedBaseline({ShardDir(0), ShardDir(1), ShardDir(2)});
  // Remove one inverted-index file: the meta still loads (so the id space
  // is known) but the shard cannot serve.
  std::filesystem::remove(IndexMeta::InvertedIndexPath(ShardDir(2), 0));

  // Without allow_shard_drop the open must fail loudly.
  EXPECT_FALSE(ShardedSearcher::Open(SetDir()).ok());

  ShardedSearcherOptions sharded_options;
  sharded_options.allow_shard_drop = true;
  auto sharded = ShardedSearcher::Open(SetDir(), sharded_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_TRUE(sharded->shards()[2].dropped);
  // The dropped shard still holds its id range.
  EXPECT_EQ(sharded->meta().num_texts, kNumTexts);

  SearchOptions options;
  options.theta = 0.6;
  for (const auto& query : MakeQueries(6)) {
    auto actual = sharded->Search(query, options);
    ASSERT_TRUE(actual.ok());
    auto full = merged.Search(query, options);
    ASSERT_TRUE(full.ok());
    ExpectSameMatches(EraseTextRange(*full, 2 * kShardTexts, kNumTexts),
                      *actual, "open-drop");
    EXPECT_EQ(actual->stats.degraded_shards, 1u);
  }
}

TEST_F(ShardedSearcherTest, AttachExtendsTheIdSpace) {
  WriteManifest({ShardDir(0), ShardDir(1)});
  auto sharded = ShardedSearcher::Open(SetDir());
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->epoch(), 0u);
  EXPECT_EQ(sharded->meta().num_texts, 2 * kShardTexts);

  ASSERT_TRUE(sharded->AttachShard(ShardDir(2)).ok());
  EXPECT_EQ(sharded->epoch(), 1u);
  EXPECT_EQ(sharded->meta().num_texts, kNumTexts);

  Searcher merged = MergedBaseline({ShardDir(0), ShardDir(1), ShardDir(2)});
  SearchOptions options;
  options.theta = 0.6;
  for (const auto& query : MakeQueries(8)) {
    auto expected = merged.Search(query, options);
    auto actual = sharded->Search(query, options);
    ASSERT_TRUE(expected.ok() && actual.ok());
    ExpectSameMatches(*expected, *actual, "post-attach");
  }

  // The manifest was durably committed: a fresh open serves the new set.
  auto reopened = ShardedSearcher::Open(SetDir());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->epoch(), 1u);
  EXPECT_EQ(reopened->meta().num_texts, kNumTexts);
}

TEST_F(ShardedSearcherTest, DetachRenumbersByConcatenation) {
  WriteManifest({ShardDir(0), ShardDir(1), ShardDir(2)});
  auto sharded = ShardedSearcher::Open(SetDir());
  ASSERT_TRUE(sharded.ok());

  ASSERT_TRUE(sharded->DetachShard(ShardDir(1)).ok());
  EXPECT_EQ(sharded->epoch(), 1u);
  EXPECT_EQ(sharded->meta().num_texts, 2 * kShardTexts);

  // Unlike a degraded drop, a detach renumbers: shard 2's texts now start
  // at kShardTexts, exactly as if the set had been merged without shard 1.
  Searcher merged = MergedBaseline({ShardDir(0), ShardDir(2)});
  SearchOptions options;
  options.theta = 0.6;
  for (const auto& query : MakeQueries(8)) {
    auto expected = merged.Search(query, options);
    auto actual = sharded->Search(query, options);
    ASSERT_TRUE(expected.ok() && actual.ok());
    ExpectSameMatches(*expected, *actual, "post-detach");
  }

  auto reopened = ShardedSearcher::Open(SetDir());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->meta().num_texts, 2 * kShardTexts);
}

TEST_F(ShardedSearcherTest, TopologyChangeRejections) {
  WriteManifest({ShardDir(0), ShardDir(1)});
  auto sharded = ShardedSearcher::Open(SetDir());
  ASSERT_TRUE(sharded.ok());

  EXPECT_TRUE(sharded->AttachShard(ShardDir(0)).IsInvalidArgument());
  EXPECT_TRUE(sharded->AttachShard(ShardDir(1) + "/").IsInvalidArgument());
  EXPECT_TRUE(sharded->DetachShard(dir_ + "/nope").IsNotFound());

  // A shard built with a different hash family cannot join the set.
  Corpus other;
  for (uint32_t i = 0; i < 10; ++i) other.AddText(sc_.corpus.text(i));
  IndexBuildOptions mismatched = build_;
  mismatched.t = build_.t + 5;
  ASSERT_TRUE(
      BuildIndexInMemory(other, dir_ + "/mismatched", mismatched).ok());
  EXPECT_TRUE(
      sharded->AttachShard(dir_ + "/mismatched").IsInvalidArgument());

  // Same (k, seed, t) but a different sketch scheme is just as foreign:
  // its postings were keyed by different hash functions.
  IndexBuildOptions wrong_scheme = build_;
  wrong_scheme.sketch = SketchSchemeId::kCMinHash;
  ASSERT_TRUE(
      BuildIndexInMemory(other, dir_ + "/wrong_scheme", wrong_scheme).ok());
  const Status scheme_attach = sharded->AttachShard(dir_ + "/wrong_scheme");
  EXPECT_TRUE(scheme_attach.IsInvalidArgument());
  EXPECT_NE(scheme_attach.ToString().find("sketch scheme"),
            std::string::npos);

  ASSERT_TRUE(sharded->DetachShard(ShardDir(1)).ok());
  EXPECT_TRUE(sharded->DetachShard(ShardDir(0)).IsInvalidArgument())
      << "the last shard must not be detachable";
  // Failed topology changes must not have bumped the epoch.
  EXPECT_EQ(sharded->epoch(), 1u);
}

TEST_F(ShardedSearcherTest, SingleShardSetMatchesPlainSearcher) {
  WriteManifest({ShardDir(0)});
  auto sharded = ShardedSearcher::Open(SetDir());
  ASSERT_TRUE(sharded.ok());
  auto plain = Searcher::Open(ShardDir(0));
  ASSERT_TRUE(plain.ok());

  SearchOptions options;
  options.theta = 0.6;
  for (const auto& query : MakeQueries(6)) {
    auto expected = plain->Search(query, options);
    auto actual = sharded->Search(query, options);
    ASSERT_TRUE(expected.ok() && actual.ok());
    ExpectSameMatches(*expected, *actual, "single-shard");
  }
}

}  // namespace
}  // namespace ndss
