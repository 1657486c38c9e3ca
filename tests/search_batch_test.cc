#include <gtest/gtest.h>

#include <filesystem>

#include "corpusgen/synthetic.h"
#include "index/index_builder.h"
#include "query/searcher.h"

namespace ndss {
namespace {

/// Rectangles and spans of a result, for bit-identity comparisons.
std::vector<uint64_t> Fingerprint(const SearchResult& result) {
  std::vector<uint64_t> out;
  for (const TextMatchRectangle& r : result.rectangles) {
    out.insert(out.end(), {r.text, r.rect.x_begin, r.rect.x_end,
                           r.rect.y_begin, r.rect.y_end, r.rect.collisions});
  }
  for (const MatchSpan& s : result.spans) {
    out.insert(out.end(), {s.text, s.begin, s.end, s.collisions});
  }
  return out;
}

class SearchBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ndss_batch_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);

    SyntheticCorpusOptions corpus_options;
    corpus_options.num_texts = 100;
    corpus_options.vocab_size = 200;  // heavy key sharing across queries
    corpus_options.zipf_exponent = 1.2;
    corpus_options.plant_rate = 0.4;
    corpus_options.seed = 61;
    sc_ = GenerateSyntheticCorpus(corpus_options);

    IndexBuildOptions build;
    build.k = 8;
    build.t = 15;
    ASSERT_TRUE(BuildIndexInMemory(sc_.corpus, dir_, build).ok());

    Rng rng(9);
    for (int q = 0; q < 20; ++q) {
      const TextId id = static_cast<TextId>(rng.Uniform(100));
      const auto text = sc_.corpus.text(id);
      const uint32_t length =
          std::min<uint32_t>(30, static_cast<uint32_t>(text.size()));
      queries_.push_back(PerturbSequence(text, 0, length, 0.1, 200, rng));
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  SyntheticCorpus sc_;
  std::vector<std::vector<Token>> queries_;
};

TEST_F(SearchBatchTest, BatchResultsIdenticalToSingleQueries) {
  auto searcher = Searcher::Open(dir_);
  ASSERT_TRUE(searcher.ok());
  SearchOptions options;
  options.theta = 0.7;
  auto batch = searcher->SearchBatch(queries_, options);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), queries_.size());
  for (size_t q = 0; q < queries_.size(); ++q) {
    auto single = searcher->Search(queries_[q], options);
    ASSERT_TRUE(single.ok());
    ASSERT_EQ((*batch)[q].spans.size(), single->spans.size()) << "q=" << q;
    for (size_t i = 0; i < single->spans.size(); ++i) {
      EXPECT_EQ((*batch)[q].spans[i].text, single->spans[i].text);
      EXPECT_EQ((*batch)[q].spans[i].begin, single->spans[i].begin);
      EXPECT_EQ((*batch)[q].spans[i].end, single->spans[i].end);
    }
  }
}

TEST_F(SearchBatchTest, CacheHitsReduceIo) {
  auto searcher = Searcher::Open(dir_);
  ASSERT_TRUE(searcher.ok());
  SearchOptions options;
  options.theta = 0.7;
  // Duplicate the query list so hits are guaranteed on the second half.
  std::vector<std::vector<Token>> doubled = queries_;
  doubled.insert(doubled.end(), queries_.begin(), queries_.end());
  auto batch = searcher->SearchBatch(doubled, options);
  ASSERT_TRUE(batch.ok());
  uint64_t total_hits = 0;
  uint64_t first_half_io = 0, second_half_io = 0;
  for (size_t q = 0; q < doubled.size(); ++q) {
    total_hits += (*batch)[q].stats.cache_hits;
    if (q < queries_.size()) {
      first_half_io += (*batch)[q].stats.io_bytes;
    } else {
      second_half_io += (*batch)[q].stats.io_bytes;
    }
  }
  EXPECT_GT(total_hits, 0u);
  EXPECT_LT(second_half_io, first_half_io / 4)
      << "repeated queries must be served almost entirely from cache";
}

TEST_F(SearchBatchTest, CacheHitIoAttribution) {
  // Pass-2 zone probes are uncached, so disable the prefix filter: every
  // list is pass-1 and the attribution invariant is exact. Sequential
  // (num_threads = 1), so each doubled query's first occurrence loads every
  // list its second occurrence wants.
  auto searcher = Searcher::Open(dir_);
  ASSERT_TRUE(searcher.ok());
  SearchOptions options;
  options.theta = 0.7;
  options.use_prefix_filter = false;
  std::vector<std::vector<Token>> doubled = queries_;
  doubled.insert(doubled.end(), queries_.begin(), queries_.end());
  auto batch = searcher->SearchBatch(doubled, options, 256ull << 20,
                                     /*num_threads=*/1);
  ASSERT_TRUE(batch.ok());
  for (size_t q = queries_.size(); q < doubled.size(); ++q) {
    const SearchStats& stats = (*batch)[q].stats;
    // A hit is charged to the waiting query and costs it no IO; the
    // loader already paid the read. Double-counting either way would
    // break io_bytes == 0 or cache_hits == short_lists.
    EXPECT_EQ(stats.io_bytes, 0u) << "q=" << q;
    EXPECT_EQ(stats.cache_hits, stats.short_lists) << "q=" << q;
  }
  // Each distinct list is read at most once: total loads (short-list scans
  // minus hits) can never exceed the number of distinct lists, which is
  // bounded by the non-hit scans of the first half.
  uint64_t scans = 0, hits = 0, first_half_scans = 0, first_half_hits = 0;
  for (size_t q = 0; q < doubled.size(); ++q) {
    scans += (*batch)[q].stats.short_lists;
    hits += (*batch)[q].stats.cache_hits;
    if (q < queries_.size()) {
      first_half_scans += (*batch)[q].stats.short_lists;
      first_half_hits += (*batch)[q].stats.cache_hits;
    }
  }
  EXPECT_EQ(scans - hits, first_half_scans - first_half_hits)
      << "the second half must perform no loads at all";
}

TEST_F(SearchBatchTest, SmallBudgetEvictsWithinTheBatch) {
  // A budget far below the batch's distinct lists: LRU eviction inside the
  // batch forces re-reads, yet answers stay those of single queries and
  // every load is charged to exactly one query, as in CacheHitIoAttribution.
  auto searcher = Searcher::Open(dir_);
  ASSERT_TRUE(searcher.ok());
  SearchOptions options;
  options.theta = 0.7;
  options.use_prefix_filter = false;
  std::vector<std::vector<Token>> doubled = queries_;
  doubled.insert(doubled.end(), queries_.begin(), queries_.end());
  auto ample = searcher->SearchBatch(doubled, options, 256ull << 20,
                                     /*num_threads=*/1);
  ASSERT_TRUE(ample.ok());
  for (size_t threads : {1, 3}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    // 16 KiB per cache shard: some lists stay, most are evicted or never
    // fit.
    auto small = searcher->SearchBatch(doubled, options, 256 << 10, threads);
    ASSERT_TRUE(small.ok());
    uint64_t scans = 0, loads = 0, ample_loads = 0;
    uint64_t io_bytes = 0, ample_io_bytes = 0;
    for (size_t q = 0; q < doubled.size(); ++q) {
      const SearchStats& stats = (*small)[q].stats;
      auto single = searcher->Search(doubled[q], options);
      ASSERT_TRUE(single.ok());
      EXPECT_EQ(Fingerprint((*small)[q]), Fingerprint(*single)) << "q=" << q;
      ASSERT_LE(stats.cache_hits, stats.short_lists) << "q=" << q;
      // A query that loaded nothing read nothing, and vice versa.
      EXPECT_EQ(stats.io_bytes == 0, stats.cache_hits == stats.short_lists)
          << "q=" << q;
      EXPECT_EQ(stats.shared_cache_hits, 0u) << "q=" << q;
      scans += stats.short_lists;
      loads += stats.short_lists - stats.cache_hits;
      ample_loads +=
          (*ample)[q].stats.short_lists - (*ample)[q].stats.cache_hits;
      io_bytes += stats.io_bytes;
      ample_io_bytes += (*ample)[q].stats.io_bytes;
    }
    // Evicted lists are read again, and each read is charged once.
    EXPECT_LT(loads, scans) << "the small cache must still serve some hits";
    EXPECT_GT(loads, ample_loads);
    EXPECT_GT(io_bytes, ample_io_bytes);
  }
}

TEST_F(SearchBatchTest, InflightParentReleasedAfterBatch) {
  // Regression: the batch list cache reserved bytes against the inflight
  // budget but never released them, so every batch leaked its cached-list
  // bytes into the parent (in ndss_serve, the server-wide budget) until
  // the cap strangled later batches.
  auto searcher = Searcher::Open(dir_);
  ASSERT_TRUE(searcher.ok());
  SearchOptions options;
  options.theta = 0.7;
  MemoryBudget parent(0);  // accounting-only server-wide budget
  BatchLimits limits;
  limits.inflight_parent = &parent;
  for (int round = 0; round < 3; ++round) {
    auto batch = searcher->SearchBatch(queries_, options, limits,
                                       256ull << 20, /*num_threads=*/2);
    ASSERT_TRUE(batch.ok());
    EXPECT_GT(parent.peak(), 0u) << "the cache never charged the parent";
    EXPECT_EQ(parent.used(), 0u)
        << "round " << round << " leaked cached-list bytes into the parent";
  }
}

TEST_F(SearchBatchTest, InflightParentReleasedAfterExhaustedBatch) {
  // Same leak, failure flavor: queries that die of ResourceExhausted must
  // not strand their cache reservations either.
  auto searcher = Searcher::Open(dir_);
  ASSERT_TRUE(searcher.ok());
  SearchOptions options;
  options.theta = 0.7;
  MemoryBudget parent(0);
  BatchLimits limits;
  limits.inflight_parent = &parent;
  limits.max_query_bytes = 1;  // every query arena charge fails
  for (int round = 0; round < 3; ++round) {
    auto batch = searcher->SearchBatch(queries_, options, limits,
                                       256ull << 20, /*num_threads=*/2);
    ASSERT_TRUE(batch.ok());
    EXPECT_GT(batch->stats.queries_resource_exhausted, 0u);
    EXPECT_EQ(parent.used(), 0u)
        << "round " << round << " leaked cached-list bytes into the parent";
  }
}

TEST_F(SearchBatchTest, ZeroBudgetDisablesCaching) {
  auto searcher = Searcher::Open(dir_);
  ASSERT_TRUE(searcher.ok());
  SearchOptions options;
  options.theta = 0.7;
  auto batch = searcher->SearchBatch(queries_, options, /*cache=*/0);
  ASSERT_TRUE(batch.ok());
  for (const SearchResult& result : *batch) {
    EXPECT_EQ(result.stats.cache_hits, 0u);
  }
}

TEST_F(SearchBatchTest, EmptyBatch) {
  auto searcher = Searcher::Open(dir_);
  ASSERT_TRUE(searcher.ok());
  auto batch = searcher->SearchBatch({}, SearchOptions{});
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
}

}  // namespace
}  // namespace ndss
