// CrossQueryListCache correctness: budget/CLOCK/parent accounting at the
// unit level, then the serving-level guarantees through ShardedSearcher —
// cached answers bit-identical to uncached ones, hits actually recorded,
// and (the part that matters) no stale list ever served across topology
// churn: detach/attach and delta publishes retire their owner ids, so a
// query can only see entries of the exact sources its snapshot runs over.
// The churn test is a TSan target in CI.

#include "query/list_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/file_io.h"
#include "corpusgen/synthetic.h"
#include "index/index_builder.h"
#include "query/searcher.h"
#include "shard/sharded_searcher.h"

namespace ndss {
namespace {

using Key = CrossQueryListCache::Key;
using Entry = CrossQueryListCache::Entry;

/// Simulates what SearchOnce's loader does: fill the entry and size it.
std::shared_ptr<Entry> Load(CrossQueryListCache& cache, const Key& key,
                            size_t windows) {
  std::shared_ptr<Entry> entry = cache.GetOrCreate(key);
  std::call_once(entry->once, [&] {
    entry->windows.assign(windows, PostedWindow{1, 2, 3, 4});
    entry->bytes = windows * sizeof(PostedWindow) +
                   CrossQueryListCache::kEntryOverhead;
    entry->stored = true;
    cache.Commit(key, entry);
  });
  return entry;
}

TEST(ListCacheTest, LoadOnceAndRetain) {
  CrossQueryListCache cache(1 << 20);
  const Key key{1, 42};
  std::shared_ptr<Entry> first = Load(cache, key, 10);
  std::shared_ptr<Entry> second = cache.GetOrCreate(key);
  EXPECT_EQ(first, second) << "one key, one entry, one load";
  const CrossQueryListCache::Counters c = cache.counters();
  EXPECT_EQ(c.insertions, 1u);
  EXPECT_EQ(c.entries, 1u);
  EXPECT_EQ(c.bytes_used, first->bytes);
}

TEST(ListCacheTest, ZeroBudgetServesButNeverRetains) {
  CrossQueryListCache cache(0);
  std::shared_ptr<Entry> entry = Load(cache, Key{1, 42}, 10);
  EXPECT_TRUE(entry->stored) << "the current holders are still served";
  const CrossQueryListCache::Counters c = cache.counters();
  EXPECT_EQ(c.insertions, 0u);
  EXPECT_EQ(c.bytes_used, 0u);
  EXPECT_EQ(c.entries, 0u) << "an unretainable key is dropped for retry";
}

TEST(ListCacheTest, EvictsLruToStayWithinBudget) {
  constexpr uint64_t kBudget = 4096;
  CrossQueryListCache cache(kBudget);
  for (uint32_t i = 0; i < 200; ++i) Load(cache, Key{1, i}, 10);
  const CrossQueryListCache::Counters c = cache.counters();
  EXPECT_LE(c.bytes_used, kBudget);
  EXPECT_GT(c.evictions, 0u);
  EXPECT_GT(c.entries, 0u) << "eviction must not empty the cache";
}

TEST(ListCacheTest, ParentChargedAndFullyReleased) {
  MemoryBudget parent(0);  // accounting only
  {
    CrossQueryListCache cache(1 << 20, &parent);
    Load(cache, Key{1, 1}, 10);
    Load(cache, Key{1, 2}, 20);
    Load(cache, Key{2, 3}, 30);
    EXPECT_EQ(parent.used(), cache.counters().bytes_used);
    cache.EraseOwner(1);
    EXPECT_EQ(parent.used(), cache.counters().bytes_used);
    EXPECT_EQ(cache.counters().entries, 1u);
  }
  EXPECT_EQ(parent.used(), 0u) << "the destructor must return every byte";
}

TEST(ListCacheTest, ParentRefusalDropsTheEntry) {
  MemoryBudget parent(1);  // refuses any real charge
  CrossQueryListCache cache(1 << 20, &parent);
  std::shared_ptr<Entry> entry = Load(cache, Key{1, 1}, 10);
  EXPECT_TRUE(entry->stored) << "holders are served even when not retained";
  const CrossQueryListCache::Counters c = cache.counters();
  EXPECT_EQ(c.insertions, 0u);
  EXPECT_EQ(c.entries, 0u);
  EXPECT_GT(c.invalidations, 0u);
  EXPECT_EQ(parent.used(), 0u);
}

TEST(ListCacheTest, EraseOwnerDropsOnlyThatOwner) {
  CrossQueryListCache cache(1 << 20);
  for (uint32_t i = 0; i < 8; ++i) Load(cache, Key{1, i}, 4);
  for (uint32_t i = 0; i < 8; ++i) Load(cache, Key{2, i}, 4);
  cache.EraseOwner(1);
  const CrossQueryListCache::Counters c = cache.counters();
  EXPECT_EQ(c.entries, 8u);
  EXPECT_EQ(c.invalidations, 8u);
  for (uint32_t i = 0; i < 8; ++i) {
    std::shared_ptr<Entry> entry = cache.GetOrCreate(Key{1, i});
    EXPECT_FALSE(entry->stored) << "owner 1's entries must be fresh again";
  }
}

TEST(ListCacheTest, CommitLosesRaceAgainstEraseOwner) {
  CrossQueryListCache cache(1 << 20);
  const Key key{7, 7};
  std::shared_ptr<Entry> entry = cache.GetOrCreate(key);
  entry->windows.assign(4, PostedWindow{1, 2, 3, 4});
  entry->bytes = 4 * sizeof(PostedWindow) + CrossQueryListCache::kEntryOverhead;
  entry->stored = true;
  cache.EraseOwner(7);  // the source retired while the load ran
  EXPECT_FALSE(cache.Commit(key, entry))
      << "a retired source's load must not be re-inserted";
  EXPECT_EQ(cache.counters().bytes_used, 0u);
}

TEST(ListCacheTest, AbandonDropsOnlyTheSameEntry) {
  CrossQueryListCache cache(1 << 20);
  const Key key{3, 3};
  std::shared_ptr<Entry> failed = cache.GetOrCreate(key);
  cache.Abandon(key, failed);
  std::shared_ptr<Entry> retry = cache.GetOrCreate(key);
  EXPECT_NE(failed, retry) << "a later query must get a fresh entry";
  cache.Abandon(key, failed);  // stale abandon: must not touch the retry
  EXPECT_EQ(cache.GetOrCreate(key), retry);
}

/// Accounted size of a Load(..., windows) entry.
constexpr uint64_t EntryBytes(size_t windows) {
  return windows * sizeof(PostedWindow) + CrossQueryListCache::kEntryOverhead;
}

/// Keys that hash to `anchor`'s internal shard (including `anchor`), found
/// by probing: in a cache with room for one entry per shard, loading a
/// second key evicts the first only when they share a shard.
std::vector<Key> SameShardKeys(const Key& anchor, size_t count) {
  std::vector<Key> keys = {anchor};
  for (uint64_t list = anchor.list + 1; keys.size() < count; ++list) {
    CrossQueryListCache probe(CrossQueryListCache::kShards * EntryBytes(10));
    Load(probe, anchor, 10);
    Load(probe, Key{anchor.owner, list}, 10);
    if (probe.counters().evictions == 1) keys.push_back({anchor.owner, list});
  }
  return keys;
}

TEST(ListCacheTest, ClockGivesAReferencedEntryASecondChance) {
  const std::vector<Key> keys = SameShardKeys(Key{1, 0}, 4);
  const Key a = keys[0], b = keys[1], c = keys[2], d = keys[3];
  // Room for exactly two entries in the shard the keys share.
  CrossQueryListCache cache(CrossQueryListCache::kShards * 2 * EntryBytes(10));
  const std::shared_ptr<Entry> entry_a = Load(cache, a, 10);
  Load(cache, b, 10);
  const CrossQueryListCache::Counters loaded = cache.counters();
  EXPECT_EQ(loaded.entries, 2u);
  EXPECT_EQ(loaded.bytes_used, 2 * EntryBytes(10));

  // A hit only sets a reference bit: no bytes, no entries move.
  EXPECT_EQ(cache.GetOrCreate(a), entry_a);
  const CrossQueryListCache::Counters hit = cache.counters();
  EXPECT_EQ(hit.entries, loaded.entries);
  EXPECT_EQ(hit.bytes_used, loaded.bytes_used);
  EXPECT_EQ(hit.evictions, 0u);

  // Making room for c passes over the older but referenced a (clearing its
  // bit) and evicts the unreferenced b.
  Load(cache, c, 10);
  EXPECT_EQ(cache.counters().evictions, 1u);
  const std::shared_ptr<Entry> loading_b = cache.GetOrCreate(b);
  EXPECT_FALSE(loading_b->stored) << "b was evicted";

  // The chance is only a second one: with no hit since, a goes next. The
  // entry b now has is loading (never committed), so it is never evicted.
  Load(cache, d, 10);
  EXPECT_EQ(cache.counters().evictions, 2u);
  EXPECT_EQ(cache.GetOrCreate(b), loading_b) << "a loading entry stays";
  EXPECT_FALSE(cache.GetOrCreate(a)->stored) << "a was evicted";
  EXPECT_TRUE(cache.GetOrCreate(c)->stored);
  EXPECT_TRUE(cache.GetOrCreate(d)->stored);
  EXPECT_LE(cache.counters().bytes_used, 2 * EntryBytes(10));
}

TEST(ListCacheTest, LoadingEntriesAreNeverEvicted) {
  const std::vector<Key> keys = SameShardKeys(Key{2, 0}, 3);
  // Room for one entry in the shard: a loading entry holds no bytes, so
  // commits around it proceed, and it survives every eviction pass.
  CrossQueryListCache cache(CrossQueryListCache::kShards * EntryBytes(10));
  const std::shared_ptr<Entry> loading = cache.GetOrCreate(keys[0]);
  Load(cache, keys[1], 10);
  Load(cache, keys[2], 10);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_EQ(cache.GetOrCreate(keys[0]), loading);
  EXPECT_FALSE(loading->stored);
}

// ---- serving-level behavior through ShardedSearcher ----

class ListCacheServingTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kNumTexts = 90;
  static constexpr uint32_t kShardTexts = 30;  // 3 shards

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ndss_listcache_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(CreateDirectories(dir_).ok());

    SyntheticCorpusOptions corpus_options;
    corpus_options.num_texts = kNumTexts;
    corpus_options.vocab_size = 300;
    corpus_options.zipf_exponent = 1.2;
    corpus_options.plant_rate = 0.35;
    corpus_options.seed = 131;
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

    Rng rng(17);
    for (int q = 0; q < 12; ++q) {
      const TextId source = static_cast<TextId>(rng.Uniform(kNumTexts));
      const auto text = sc_.corpus.text(source);
      const uint32_t length =
          std::min<uint32_t>(35, static_cast<uint32_t>(text.size()));
      queries_.push_back(PerturbSequence(text, 0, length, 0.1, 300, rng));
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string ShardDir(uint32_t s) const {
    return dir_ + "/s" + std::to_string(s);
  }

  /// Creates a fresh set directory serving `shards` and returns it.
  std::string MakeSet(const std::string& name,
                      const std::vector<uint32_t>& shards) {
    const std::string set_dir = dir_ + "/" + name;
    ShardManifest manifest;
    for (uint32_t s : shards) manifest.shard_dirs.push_back(ShardDir(s));
    EXPECT_TRUE(manifest.Save(set_dir).ok());
    return set_dir;
  }

  /// An in-memory delta over sealed texts [begin, end) — same documents,
  /// so queries derived from them match the delta too, at delta ids.
  std::shared_ptr<Searcher> MakeDelta(uint32_t begin, uint32_t end) {
    Corpus corpus;
    for (uint32_t i = begin; i < end; ++i) corpus.AddText(sc_.corpus.text(i));
    auto searcher = Searcher::InMemory(corpus, build_);
    EXPECT_TRUE(searcher.ok()) << searcher.status().ToString();
    return std::make_shared<Searcher>(std::move(*searcher));
  }

  /// Order-sensitive fingerprint of a result's matches (stats excluded:
  /// the cache legitimately changes IO attribution, never answers).
  static std::string Fingerprint(const SearchResult& result) {
    std::string fp;
    for (const MatchSpan& span : result.spans) {
      fp += std::to_string(span.text) + ":" + std::to_string(span.begin) +
            "-" + std::to_string(span.end) + "/" +
            std::to_string(span.collisions) + ";";
    }
    fp += "|";
    for (const TextMatchRectangle& tr : result.rectangles) {
      fp += std::to_string(tr.text) + ":" + std::to_string(tr.rect.x_begin) +
            "," + std::to_string(tr.rect.x_end) + "," +
            std::to_string(tr.rect.y_begin) + "," +
            std::to_string(tr.rect.y_end) + "," +
            std::to_string(tr.rect.collisions) + ";";
    }
    return fp;
  }

  SearchOptions search_options() const {
    SearchOptions options;
    options.theta = 0.7;
    return options;
  }

  std::string dir_;
  SyntheticCorpus sc_;
  IndexBuildOptions build_;
  std::vector<std::vector<Token>> queries_;
};

TEST_F(ListCacheServingTest, CachedBatchesBitIdenticalAndHitOnRepeat) {
  const std::string set_dir = MakeSet("set", {0, 1, 2});
  auto uncached = ShardedSearcher::Open(set_dir);
  ASSERT_TRUE(uncached.ok());
  auto cached = ShardedSearcher::Open(set_dir);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(cached->EnableListCache(64ull << 20).ok());
  EXPECT_FALSE(cached->EnableListCache(64ull << 20).ok())
      << "double enable must be refused";

  auto expect = uncached->SearchBatch(queries_, search_options());
  ASSERT_TRUE(expect.ok());
  auto first = cached->SearchBatch(queries_, search_options());
  ASSERT_TRUE(first.ok());
  auto second = cached->SearchBatch(queries_, search_options());
  ASSERT_TRUE(second.ok());
  uint64_t second_hits = 0;
  for (size_t q = 0; q < queries_.size(); ++q) {
    EXPECT_EQ(Fingerprint((*first)[q]), Fingerprint((*expect)[q])) << q;
    EXPECT_EQ(Fingerprint((*second)[q]), Fingerprint((*expect)[q])) << q;
    second_hits += (*second)[q].stats.shared_cache_hits;
    // Every pass-1 list of the second run was loaded by the first run.
    EXPECT_EQ((*second)[q].stats.shared_cache_hits,
              static_cast<uint64_t>((*second)[q].stats.short_lists))
        << q;
    // With a server cache the batch builds no cache of its own, so no hit
    // is a batch-cache hit.
    EXPECT_EQ((*second)[q].stats.cache_hits, 0u) << q;
  }
  EXPECT_GT(second_hits, 0u);
  const CrossQueryListCache* cache = cached->list_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->counters().hits, 0u);
  EXPECT_GT(cache->counters().misses, 0u);
}

TEST_F(ListCacheServingTest, SingleQueryPathHitsTheCache) {
  const std::string set_dir = MakeSet("set", {0, 1, 2});
  auto uncached = ShardedSearcher::Open(set_dir);
  ASSERT_TRUE(uncached.ok());
  auto cached = ShardedSearcher::Open(set_dir);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(cached->EnableListCache(64ull << 20).ok());
  uint64_t hits = 0;
  for (const std::vector<Token>& query : queries_) {
    auto expect = uncached->Search(query, search_options());
    ASSERT_TRUE(expect.ok());
    auto first = cached->Search(query, search_options());
    ASSERT_TRUE(first.ok());
    auto repeat = cached->Search(query, search_options());
    ASSERT_TRUE(repeat.ok());
    EXPECT_EQ(Fingerprint(*first), Fingerprint(*expect));
    EXPECT_EQ(Fingerprint(*repeat), Fingerprint(*expect));
    EXPECT_EQ(repeat->stats.shared_cache_hits, repeat->stats.short_lists)
        << "a repeated query must be served from the cache";
    EXPECT_GT(repeat->stats.shared_cache_hits, 0u);
    hits += first->stats.shared_cache_hits + repeat->stats.shared_cache_hits;
  }
  // Searches publish their hits in one call each; the counter stays exact.
  EXPECT_EQ(cached->list_cache()->counters().hits, hits);
}

TEST_F(ListCacheServingTest, DetachRetiresTheShardsEntries) {
  const std::string set_dir = MakeSet("set", {0, 1, 2});
  auto cached = ShardedSearcher::Open(set_dir);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(cached->EnableListCache(64ull << 20).ok());
  for (const std::vector<Token>& query : queries_) {
    ASSERT_TRUE(cached->Search(query, search_options()).ok());
  }
  const CrossQueryListCache* cache = cached->list_cache();
  const uint64_t entries_before = cache->counters().entries;
  ASSERT_GT(entries_before, 0u);
  ASSERT_TRUE(cached->DetachShard(ShardDir(2)).ok());
  EXPECT_GT(cache->counters().invalidations, 0u);
  EXPECT_LT(cache->counters().entries, entries_before)
      << "the detached shard's entries must be garbage-collected";
  // Post-detach answers must match a cache-less searcher over the shrunk
  // set — a stale s2 entry would show up as phantom matches.
  auto uncached = ShardedSearcher::Open(set_dir);
  ASSERT_TRUE(uncached.ok());
  for (const std::vector<Token>& query : queries_) {
    auto expect = uncached->Search(query, search_options());
    ASSERT_TRUE(expect.ok());
    auto got = cached->Search(query, search_options());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Fingerprint(*got), Fingerprint(*expect));
  }
}

TEST_F(ListCacheServingTest, DeltaPublishNeverServesTheOldMemtable) {
  const std::string set_dir = MakeSet("set", {0, 1, 2});
  auto cached = ShardedSearcher::Open(set_dir);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(cached->EnableListCache(64ull << 20).ok());
  // Publish delta #1 and warm the cache with its lists.
  ASSERT_TRUE(cached->SetDelta(MakeDelta(0, 5)).ok());
  for (const std::vector<Token>& query : queries_) {
    ASSERT_TRUE(cached->Search(query, search_options()).ok());
  }
  // Publish delta #2 (different documents). Every answer must now reflect
  // delta #2 exactly: a hit on a delta-#1 entry would resurrect documents
  // that no longer exist.
  ASSERT_TRUE(cached->SetDelta(MakeDelta(5, 10)).ok());
  auto uncached = ShardedSearcher::Open(set_dir);
  ASSERT_TRUE(uncached.ok());
  ASSERT_TRUE(uncached->SetDelta(MakeDelta(5, 10)).ok());
  for (const std::vector<Token>& query : queries_) {
    auto expect = uncached->Search(query, search_options());
    ASSERT_TRUE(expect.ok());
    auto got = cached->Search(query, search_options());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Fingerprint(*got), Fingerprint(*expect));
  }
}

TEST_F(ListCacheServingTest, TopologyChurnNeverServesStaleLists) {
  // Concurrent queries vs detach/attach/delta churn: every answer must be
  // bit-identical to some VALID topology's answer (the snapshot the query
  // ran on), never a mix — a stale cached list would produce a fingerprint
  // outside the valid set. TSan covers the synchronization side in CI.
  const std::string set_dir = MakeSet("set", {0, 1, 2});

  // Precompute the per-query answer fingerprints of every topology the
  // churn loop can expose: {s0,s1,s2} and {s0,s1}, each with and without
  // the delta. (Detaching then re-attaching s2 restores the original
  // order, so no other sealed arrangement can occur.)
  std::vector<std::set<std::string>> valid(queries_.size());
  for (const bool small : {false, true}) {
    const std::string probe_dir = MakeSet(small ? "probe_small" : "probe_full",
                                          small
                                              ? std::vector<uint32_t>{0, 1}
                                              : std::vector<uint32_t>{0, 1, 2});
    for (const bool with_delta : {false, true}) {
      auto probe = ShardedSearcher::Open(probe_dir);
      ASSERT_TRUE(probe.ok());
      if (with_delta) {
        ASSERT_TRUE(probe->SetDelta(MakeDelta(0, 5)).ok());
      }
      for (size_t q = 0; q < queries_.size(); ++q) {
        auto expect = probe->Search(queries_[q], search_options());
        ASSERT_TRUE(expect.ok());
        valid[q].insert(Fingerprint(*expect));
      }
    }
  }

  auto cached = ShardedSearcher::Open(set_dir);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(cached->EnableListCache(16ull << 20).ok());
  std::shared_ptr<Searcher> delta = MakeDelta(0, 5);

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(1000 + w);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t q = rng.Uniform(queries_.size());
        auto got = cached->Search(queries_[q], search_options());
        if (!got.ok()) continue;  // transient all-dropped never happens here
        if (valid[q].count(Fingerprint(*got)) == 0) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int iter = 0; iter < 30; ++iter) {
    ASSERT_TRUE(cached->SetDelta(delta).ok());
    ASSERT_TRUE(cached->DetachShard(ShardDir(2)).ok());
    ASSERT_TRUE(cached->SetDelta(nullptr).ok());
    ASSERT_TRUE(cached->AttachShard(ShardDir(2)).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(violations.load(), 0)
      << "some query's answer matched NO valid topology: a stale (or torn) "
         "cached list was served";
  const CrossQueryListCache* cache = cached->list_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->counters().invalidations, 0u);
}

}  // namespace
}  // namespace ndss
