// Chaos harness for self-healing sharded serving: a seeded, scripted fault
// schedule (storms, bursts, lulls) drives a FaultInjectionEnv while query
// threads and a topology-churn thread hammer a ShardedSearcher. Invariants:
// the process never crashes, every OK answer bit-matches some valid
// (topology snapshot x excluded-shard subset) expectation, and once the
// schedule clears, serving returns to exact answers with zero degraded
// shards. The schedule is deterministic per seed; on failure it is written
// to $NDSS_CHAOS_ARTIFACT (CI uploads it) so the run can be replayed.
//
// Knobs: NDSS_CHAOS_MS stretches the total fault time (nightly runs use
// minutes; the default keeps CI fast), NDSS_CHAOS_ARTIFACT names the
// failing-schedule dump file.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection_env.h"
#include "common/file_io.h"
#include "corpusgen/synthetic.h"
#include "index/index_builder.h"
#include "index/index_merger.h"
#include "query/searcher.h"
#include "shard/sharded_searcher.h"

namespace ndss {
namespace {

/// One scripted segment of the fault schedule.
struct ChaosPhase {
  std::string mode;   ///< "storm" | "burst" | "lull"
  uint32_t shard;     ///< target shard (s0..s2; ignored for lull)
  double p;           ///< fault probability while armed
  int64_t budget;     ///< fault budget (-1 = unbounded)
  int duration_ms;    ///< load time before the phase's faults clear
};

std::string DescribePhase(const ChaosPhase& phase) {
  std::ostringstream out;
  out << phase.mode << " shard=" << phase.shard << " p=" << phase.p
      << " budget=" << phase.budget << " ms=" << phase.duration_ms;
  return out.str();
}

/// Order- and field-sensitive fingerprint of a result's matches (FNV-1a).
/// Two results with the same fingerprint are treated as bit-identical.
uint64_t Fingerprint(const SearchResult& result) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(result.rectangles.size());
  for (const TextMatchRectangle& r : result.rectangles) {
    mix(r.text);
    mix(r.rect.x_begin);
    mix(r.rect.x_end);
    mix(r.rect.y_begin);
    mix(r.rect.y_end);
    mix(r.rect.collisions);
  }
  mix(result.spans.size());
  for (const MatchSpan& s : result.spans) {
    mix(s.text);
    mix(s.begin);
    mix(s.end);
    mix(s.collisions);
  }
  return h;
}

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

class ChaosTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr uint32_t kShards = 4;  // s0..s2 in the set, s3 churns
  static constexpr uint32_t kShardTexts = 40;
  static constexpr uint32_t kNumTexts = kShards * kShardTexts;

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ndss_chaos_" +
           std::to_string(GetParam());
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(CreateDirectories(dir_).ok());

    SyntheticCorpusOptions corpus_options;
    corpus_options.num_texts = kNumTexts;
    corpus_options.vocab_size = 400;
    corpus_options.plant_rate = 0.35;
    corpus_options.seed = 93;
    sc_ = GenerateSyntheticCorpus(corpus_options);

    build_.k = 5;
    build_.t = 20;
    for (uint32_t s = 0; s < kShards; ++s) {
      Corpus shard;
      for (uint32_t i = s * kShardTexts; i < (s + 1) * kShardTexts; ++i) {
        shard.AddText(sc_.corpus.text(i));
      }
      ASSERT_TRUE(BuildIndexInMemory(shard, ShardDir(s), build_).ok());
    }
    ShardManifest manifest;
    manifest.shard_dirs = {ShardDir(0), ShardDir(1), ShardDir(2)};
    ASSERT_TRUE(manifest.Save(SetDir()).ok());

    fault_ = std::make_unique<FaultInjectionEnv>(Env::Posix());
    SetDefaultEnv(fault_.get());
  }

  void TearDown() override {
    SetDefaultEnv(nullptr);
    fault_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string ShardDir(uint32_t s) const {
    return dir_ + "/s" + std::to_string(s);
  }
  std::string SetDir() const { return dir_ + "/set"; }

  Searcher MergedBaselineOf(const std::vector<std::string>& dirs,
                            const std::string& name) {
    const std::string out = dir_ + "/" + name;
    auto stats = MergeIndexes(dirs, out, IndexMergeOptions{});
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    auto searcher = Searcher::Open(out);
    EXPECT_TRUE(searcher.ok()) << searcher.status().ToString();
    return std::move(*searcher);
  }

  std::vector<std::vector<Token>> MakeQueries(size_t count) const {
    Rng rng(7);
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

  /// All fingerprints a chaos-time OK answer to `query` may legally have:
  /// for each topology (3 shards, or 4 with the churn shard attached) and
  /// each subset of excluded shards, the merged baseline with the excluded
  /// id ranges erased. The full-exclusion subsets are included but
  /// unreachable (an all-dropped set fails the query instead).
  std::set<uint64_t> ValidFingerprints(Searcher& merged3, Searcher& merged4,
                                       const std::vector<Token>& query,
                                       const SearchOptions& options) {
    std::set<uint64_t> valid;
    for (int topo = 3; topo <= 4; ++topo) {
      Searcher& merged = topo == 3 ? merged3 : merged4;
      auto full = merged.Search(query, options);
      EXPECT_TRUE(full.ok()) << full.status().ToString();
      const uint32_t shards = static_cast<uint32_t>(topo);
      for (uint32_t mask = 0; mask < (1u << shards); ++mask) {
        SearchResult expected = *full;
        for (uint32_t s = 0; s < shards; ++s) {
          if (mask & (1u << s)) {
            expected = EraseTextRange(std::move(expected), s * kShardTexts,
                                      (s + 1) * kShardTexts);
          }
        }
        valid.insert(Fingerprint(expected));
      }
    }
    return valid;
  }

  /// Writes the failing schedule where CI can pick it up as an artifact.
  static void DumpSchedule(uint64_t seed,
                           const std::vector<ChaosPhase>& schedule,
                           const std::string& reason) {
    std::ostringstream out;
    out << "{\"seed\": " << seed << ", \"reason\": \"" << reason
        << "\", \"phases\": [";
    for (size_t i = 0; i < schedule.size(); ++i) {
      if (i > 0) out << ", ";
      out << "\"" << DescribePhase(schedule[i]) << "\"";
    }
    out << "]}\n";
    const char* path = std::getenv("NDSS_CHAOS_ARTIFACT");
    if (path != nullptr) {
      std::ofstream file(path, std::ios::app);
      file << out.str();
    }
    ADD_FAILURE() << "chaos schedule (replay with this seed): " << out.str();
  }

  std::string dir_;
  SyntheticCorpus sc_;
  IndexBuildOptions build_;
  std::unique_ptr<FaultInjectionEnv> fault_;
};

TEST_P(ChaosTest, ScriptedFaultScheduleNeverCorruptsAnswers) {
  const uint64_t seed = GetParam();
  Rng script(seed);

  // Scale the schedule to the time budget: each phase runs ~150 ms.
  const int total_ms = EnvInt("NDSS_CHAOS_MS", 900);
  const int phase_ms = 150;
  const int num_phases = std::max(3, total_ms / phase_ms);
  std::vector<ChaosPhase> schedule;
  for (int i = 0; i < num_phases; ++i) {
    ChaosPhase phase;
    phase.shard = static_cast<uint32_t>(script.Uniform(3));
    phase.duration_ms = phase_ms;
    switch (script.Uniform(3)) {
      case 0:  // storm: sustained random faults on one shard
        phase.mode = "storm";
        phase.p = 0.05 + 0.3 * script.NextDouble();
        phase.budget = -1;
        break;
      case 1:  // burst: every op fails until the budget runs dry
        phase.mode = "burst";
        phase.p = 1.0;
        phase.budget = 5 + static_cast<int64_t>(script.Uniform(20));
        break;
      default:  // lull: faults cleared, monitor gets room to heal
        phase.mode = "lull";
        phase.p = 0.0;
        phase.budget = -1;
        break;
    }
    schedule.push_back(phase);
  }

  ShardedSearcherOptions options;
  options.enable_self_healing = true;
  options.health.consecutive_failures_to_quarantine = 2;
  options.health.error_rate_min_samples = 1000;
  options.health.initial_probe_delay_micros = 1'000;
  options.health.max_probe_delay_micros = 50'000;
  options.health.deep_check_after_probes = 3;
  options.health.monitor_poll_micros = 1'000;
  auto sharded = ShardedSearcher::Open(SetDir(), options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  Searcher merged3 = MergedBaselineOf(
      {ShardDir(0), ShardDir(1), ShardDir(2)}, "merged3");
  Searcher merged4 = MergedBaselineOf(
      {ShardDir(0), ShardDir(1), ShardDir(2), ShardDir(3)}, "merged4");

  SearchOptions search_options;
  search_options.theta = 0.6;
  const auto queries = MakeQueries(6);
  std::vector<std::set<uint64_t>> valid;
  for (const auto& query : queries) {
    valid.push_back(
        ValidFingerprints(merged3, merged4, query, search_options));
  }

  // Load: query threads validate every OK answer against the valid set
  // (gtest assertions are not thread-safe, so failures are counted and
  // reported after the join); one thread churns the fourth shard in and
  // out; one thread snapshots health observability.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answers_ok{0};
  std::atomic<uint64_t> answers_invalid{0};
  std::atomic<uint64_t> answers_failed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      size_t q = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t index = q++ % queries.size();
        auto actual = sharded->Search(queries[index], search_options);
        if (!actual.ok()) {
          // Legal only as IOError/Corruption (an all-excluded window);
          // governance statuses cannot appear, nothing governs here.
          ++answers_failed;
          continue;
        }
        if (valid[index].count(Fingerprint(*actual)) == 0) {
          ++answers_invalid;
        } else {
          ++answers_ok;
        }
      }
    });
  }
  workers.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)sharded->AttachShard(ShardDir(3));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      (void)sharded->DetachShard(ShardDir(3));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  workers.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const ShardInfo& info : sharded->shards()) {
        (void)info.health.drops;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Run the schedule: arm each phase's faults, hold them for the phase
  // duration, then clear (the "clear after T" transition every phase ends
  // with).
  for (const ChaosPhase& phase : schedule) {
    if (phase.mode != "lull") {
      fault_->SetFaultPathFilter(ShardDir(phase.shard));
      fault_->SetFailProbability(phase.p, /*seed=*/seed ^ phase.shard);
      fault_->SetFaultBudget(phase.budget);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(phase.duration_ms));
    fault_->Heal();
  }

  stop.store(true);
  for (std::thread& worker : workers) worker.join();

  // Chaos-time invariants.
  EXPECT_FALSE(fault_->crashed());
  EXPECT_GT(answers_ok.load(), 0u) << "vacuous run: no OK answers at all";
  if (answers_invalid.load() > 0) {
    DumpSchedule(seed, schedule,
                 std::to_string(answers_invalid.load()) +
                     " answers matched no valid (topology, exclusion) "
                     "expectation");
  }

  // Recovery: faults are gone; pin the topology to the base three shards
  // and wait for the monitor to heal everything. A suspect shard returns to
  // healthy only on a served success, so the loop keeps one query in
  // flight per iteration (a run whose last outcome on some shard was a
  // transient failure would otherwise stay suspect with no traffic).
  (void)sharded->DetachShard(ShardDir(3));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  bool healthy = false;
  for (size_t q = 0; !healthy && std::chrono::steady_clock::now() < deadline;
       ++q) {
    (void)sharded->Search(queries[q % queries.size()], search_options);
    const auto shards = sharded->shards();
    healthy = shards.size() == 3;
    for (const ShardInfo& info : shards) {
      healthy = healthy && info.health.state == ShardHealth::kHealthy;
    }
    if (!healthy) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!healthy) {
    DumpSchedule(seed, schedule, "set did not return to full health");
    return;
  }

  // Full recovery: every answer bit-matches the never-faulted baseline
  // with zero degraded shards.
  for (size_t q = 0; q < queries.size(); ++q) {
    auto expected = merged3.Search(queries[q], search_options);
    auto actual = sharded->Search(queries[q], search_options);
    ASSERT_TRUE(expected.ok() && actual.ok()) << actual.status().ToString();
    EXPECT_EQ(Fingerprint(*expected), Fingerprint(*actual)) << "query " << q;
    EXPECT_EQ(actual->stats.degraded_shards, 0u) << "query " << q;
    if (Fingerprint(*expected) != Fingerprint(*actual)) {
      DumpSchedule(seed, schedule, "post-recovery answers are not exact");
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(17ull, 20260807ull, 0xC0FFEEull));

}  // namespace
}  // namespace ndss
