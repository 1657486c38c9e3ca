// Fault-injection coverage of the crash-safe build protocol (DESIGN.md §7).
//
// The central test sweeps a simulated power loss across every file operation
// of a full index build: for each crash point the build runs against a
// FaultInjectionEnv armed to die at that operation, un-synced data is
// dropped (what the file system may do on power loss), and the directory is
// reopened. The invariant under test is all-or-nothing: reopening either
// fails with a clean Status (the CURRENT commit marker is missing) or serves
// answers byte-identical to an uninterrupted build. There is no third
// outcome — no torn index that opens and answers wrong.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/fault_injection_env.h"
#include "common/file_io.h"
#include "common/retry.h"
#include "common/status.h"
#include "corpusgen/synthetic.h"
#include "index/index_builder.h"
#include "index/index_meta.h"
#include "index/inverted_index_reader.h"
#include "query/searcher.h"
#include "text/corpus_file.h"

namespace ndss {
namespace {

class EnvFaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ndss_env_fault_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    SyntheticCorpusOptions options;
    options.num_texts = 24;
    options.min_text_length = 80;
    options.max_text_length = 200;
    options.vocab_size = 150;
    options.seed = 7;
    sc_ = GenerateSyntheticCorpus(options);

    build_.k = 3;
    build_.t = 15;

    fault_ = std::make_unique<FaultInjectionEnv>(Env::Posix());
    SetDefaultEnv(fault_.get());
  }

  void TearDown() override {
    SetDefaultEnv(nullptr);
    std::filesystem::remove_all(dir_);
  }

  std::vector<std::vector<Token>> Queries() const {
    std::vector<std::vector<Token>> queries;
    for (TextId text = 0; text < 5; ++text) {
      const auto tokens = sc_.corpus.text(text);
      queries.emplace_back(tokens.begin(), tokens.begin() + 40);
    }
    return queries;
  }

  /// Runs the fixed query set and flattens the result spans into strings, so
  /// two searchers can be compared for exact agreement.
  static Result<std::vector<std::string>> RunQueries(
      Searcher& searcher, const std::vector<std::vector<Token>>& queries) {
    SearchOptions options;
    options.theta = 0.5;
    std::vector<std::string> fingerprints;
    for (const auto& query : queries) {
      NDSS_ASSIGN_OR_RETURN(SearchResult result,
                            searcher.Search(query, options));
      std::string fp;
      for (const MatchSpan& span : result.spans) {
        fp += std::to_string(span.text) + ":" + std::to_string(span.begin) +
              "-" + std::to_string(span.end) + "/" +
              std::to_string(span.collisions) + ";";
      }
      fingerprints.push_back(std::move(fp));
    }
    return fingerprints;
  }

  /// One crash-sweep iteration: arm a crash at `crash_op`, run `build`, drop
  /// un-synced data, heal, and check the all-or-nothing invariant against
  /// `baseline`.
  void CheckCrashPoint(int64_t crash_op,
                       const std::function<Status(const std::string&)>& build,
                       const std::vector<std::string>& baseline) {
    SCOPED_TRACE("crash at op " + std::to_string(crash_op));
    const std::string sweep_dir = dir_ + "/sweep";
    std::filesystem::remove_all(sweep_dir);
    fault_->ResetOpCount();
    fault_->ArmCrashAtOp(crash_op);
    const Status status = build(sweep_dir);
    (void)status;  // usually fails; a swallowed late fault may not
    ASSERT_TRUE(fault_->DropUnsyncedData().ok());
    fault_->Heal();

    auto searcher = Searcher::Open(sweep_dir);
    if (!searcher.ok()) {
      ++failed_opens_;
      return;  // clean refusal is one of the two allowed outcomes
    }
    auto answers = RunQueries(*searcher, Queries());
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    EXPECT_EQ(baseline, *answers);
  }

  std::string dir_;
  SyntheticCorpus sc_;
  IndexBuildOptions build_;
  std::unique_ptr<FaultInjectionEnv> fault_;
  int failed_opens_ = 0;
};

TEST_F(EnvFaultInjectionTest, CrashSweepInMemoryBuild) {
  // Uninterrupted counted run: measures the op budget and produces the
  // ground-truth answers.
  const std::string clean_dir = dir_ + "/clean";
  fault_->ResetOpCount();
  ASSERT_TRUE(BuildIndexInMemory(sc_.corpus, clean_dir, build_).ok());
  const int64_t total_ops = fault_->op_count();
  ASSERT_GT(total_ops, 20) << "suspiciously few ops; is the env wired in?";

  auto clean = Searcher::Open(clean_dir);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  auto baseline = RunQueries(*clean, Queries());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_FALSE(baseline->empty());

  const auto build = [&](const std::string& out) {
    return BuildIndexInMemory(sc_.corpus, out, build_).status();
  };
  for (int64_t op = 0; op < total_ops; ++op) {
    CheckCrashPoint(op, build, *baseline);
    if (HasFatalFailure()) return;
  }
  // Early crash points must leave nothing openable.
  EXPECT_GT(failed_opens_, 0);
}

TEST_F(EnvFaultInjectionTest, CrashSweepParallelInMemoryBuild) {
  // Three workers (k = 3) write their functions' files concurrently, so the
  // op order differs from run to run, but not the op count. Whatever
  // operation a crash lands on, the directory must either refuse to open
  // or answer exactly like the baseline.
  build_.num_threads = 4;
  const std::string clean_dir = dir_ + "/clean";
  fault_->ResetOpCount();
  ASSERT_TRUE(BuildIndexInMemory(sc_.corpus, clean_dir, build_).ok());
  const int64_t total_ops = fault_->op_count();
  ASSERT_GT(total_ops, 20);

  auto clean = Searcher::Open(clean_dir);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  auto baseline = RunQueries(*clean, Queries());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const auto build = [&](const std::string& out) {
    return BuildIndexInMemory(sc_.corpus, out, build_).status();
  };
  for (int64_t op = 0; op < total_ops; ++op) {
    CheckCrashPoint(op, build, *baseline);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(failed_opens_, 0);
}

TEST_F(EnvFaultInjectionTest, ParallelBuildFaultReturnsErrorAndNoMarker) {
  build_.num_threads = 4;
  const std::string idx = dir_ + "/idx";
  fault_->ResetOpCount();
  ASSERT_TRUE(BuildIndexInMemory(sc_.corpus, idx, build_).ok());
  const int64_t total_ops = fault_->op_count();

  // One failed operation in the middle of the build lands in some worker's
  // inverted-file writes: the build reports it and publishes no marker.
  for (int64_t op = total_ops / 4; op < 3 * total_ops / 4; ++op) {
    SCOPED_TRACE("fault at op " + std::to_string(op));
    fault_->ResetOpCount();
    fault_->FailAtOp(op);
    const Status status = BuildIndexInMemory(sc_.corpus, idx, build_).status();
    fault_->Heal();
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
    EXPECT_FALSE(FileExists(IndexCommitMarkerPath(idx)));
    EXPECT_FALSE(Searcher::Open(idx).ok());
  }

  // When every function fails, the lowest function's error is returned.
  fault_->SetFaultPathFilter("/inverted.");
  fault_->SetFailProbability(1.0);
  const Status all_failed = BuildIndexInMemory(sc_.corpus, idx, build_).status();
  fault_->Heal();
  ASSERT_FALSE(all_failed.ok());
  EXPECT_NE(all_failed.ToString().find("/inverted.0.ndx"), std::string::npos)
      << all_failed.ToString();
  EXPECT_FALSE(FileExists(IndexCommitMarkerPath(idx)));
}

TEST_F(EnvFaultInjectionTest, CrashSweepExternalBuild) {
  // Force the spill path: tiny memory budget and batches.
  build_.memory_budget_bytes = 1 << 16;
  build_.num_partitions = 4;
  build_.batch_tokens = 1 << 12;

  const std::string corpus_path = dir_ + "/corpus.ndc";
  ASSERT_TRUE(WriteCorpusFile(corpus_path, sc_.corpus).ok());

  const std::string clean_dir = dir_ + "/clean";
  fault_->ResetOpCount();
  ASSERT_TRUE(BuildIndexExternal(corpus_path, clean_dir, build_).ok());
  const int64_t total_ops = fault_->op_count();
  ASSERT_GT(total_ops, 20);

  auto clean = Searcher::Open(clean_dir);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  auto baseline = RunQueries(*clean, Queries());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // The external build does hundreds of spill operations; a strided sweep
  // (always including the first and last 16 ops, which cover directory
  // setup and the meta/marker commit) keeps the test fast.
  const int64_t stride = std::max<int64_t>(1, total_ops / 96);
  const auto build = [&](const std::string& out) {
    return BuildIndexExternal(corpus_path, out, build_).status();
  };
  for (int64_t op = 0; op < total_ops; ++op) {
    if (op >= 16 && op < total_ops - 16 && op % stride != 0) continue;
    CheckCrashPoint(op, build, *baseline);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(failed_opens_, 0);
}

TEST_F(EnvFaultInjectionTest, CrashedEnvFailsEverythingUntilHealed) {
  fault_->ArmCrashAtOp(0);
  EXPECT_FALSE(WriteStringToFile(dir_ + "/x", "data").ok());
  EXPECT_FALSE(WriteStringToFile(dir_ + "/x", "data").ok());
  EXPECT_TRUE(fault_->crashed());
  // Existence probes stay usable (Searcher::Open consults the commit marker
  // through FileExists before any counted operation).
  EXPECT_FALSE(FileExists(dir_ + "/x"));
  fault_->Heal();
  EXPECT_TRUE(WriteStringToFile(dir_ + "/x", "data").ok());
}

TEST_F(EnvFaultInjectionTest, DropUnsyncedDataKeepsOnlySyncedPrefix) {
  const std::string path = dir_ + "/partial";
  {
    auto file = fault_->NewWritableFile(path, false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("durable", 7).ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE((*file)->Append("-volatile", 9).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto before = ReadFileToString(path);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ("durable-volatile", *before);

  ASSERT_TRUE(fault_->DropUnsyncedData().ok());
  auto after = ReadFileToString(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ("durable", *after);
}

TEST_F(EnvFaultInjectionTest, TruncateFileIsCountedAndClampsDurability) {
  const std::string path = dir_ + "/truncated";
  {
    auto file = fault_->NewWritableFile(path, false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("0123456789", 10).ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  // TruncateFile routes through the fault machinery like any other op.
  fault_->FailAtOp(fault_->op_count());
  EXPECT_FALSE(fault_->TruncateFile(path, 4).ok());
  ASSERT_TRUE(fault_->TruncateFile(path, 4).ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ("0123", *content);

  // The tracked durable size follows the truncation: a crash afterwards
  // must not resurrect the truncated-away synced bytes.
  ASSERT_TRUE(fault_->DropUnsyncedData().ok());
  content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ("0123", *content);
}

TEST_F(EnvFaultInjectionTest, FailFsyncFailsSyncWithoutAdvancingDurability) {
  const std::string path = dir_ + "/fsyncgate";
  auto file = fault_->NewWritableFile(path, false);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("acked", 5).ok());
  ASSERT_TRUE((*file)->Sync().ok());

  fault_->SetFailFsync(true);
  ASSERT_TRUE((*file)->Append("-lost", 5).ok());
  const Status synced = (*file)->Sync();
  EXPECT_TRUE(synced.IsIOError()) << synced.ToString();

  // The failed fsync did NOT advance the durable watermark: after a crash
  // only the previously synced prefix survives. (This models the kernel
  // dropping dirty pages on fsync failure — fsyncgate.)
  ASSERT_TRUE((*file)->Close().ok());
  file->reset();
  fault_->SetFailFsync(false);
  ASSERT_TRUE(fault_->DropUnsyncedData().ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ("acked", *content);
}

TEST_F(EnvFaultInjectionTest, RenamePreservesSyncedState) {
  const std::string tmp = dir_ + "/f.tmp";
  {
    auto file = fault_->NewWritableFile(tmp, false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("payload", 7).ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  ASSERT_TRUE(fault_->RenameFile(tmp, dir_ + "/f").ok());
  ASSERT_TRUE(fault_->DropUnsyncedData().ok());
  auto content = ReadFileToString(dir_ + "/f");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ("payload", *content);
}

// ---- probabilistic storms, path filters, fault budgets (chaos knobs) ----

/// One counted write sequence (open + append + close) against `path`.
Status TouchFile(Env* env, const std::string& path) {
  auto file = env->NewWritableFile(path, /*append=*/false);
  if (!file.ok()) return file.status();
  NDSS_RETURN_NOT_OK((*file)->Append("x", 1));
  return (*file)->Close();
}

TEST_F(EnvFaultInjectionTest, ProbabilisticFaultsAreSeededDeterministic) {
  auto run = [&](uint64_t seed) {
    fault_->Heal();
    fault_->SetFailProbability(0.5, seed);
    std::string pattern;
    for (int i = 0; i < 32; ++i) {
      pattern += TouchFile(fault_.get(),
                           dir_ + "/p" + std::to_string(i))
                     .ok()
                     ? 'o'
                     : 'x';
    }
    return pattern;
  };
  const std::string first = run(0x57081);
  EXPECT_EQ(first, run(0x57081)) << "same seed must replay the same storm";
  EXPECT_NE(first, run(0x1234)) << "different seed, different storm";
  EXPECT_NE(first.find('x'), std::string::npos) << "storm injected nothing";
  EXPECT_NE(first.find('o'), std::string::npos) << "storm failed everything";
}

TEST_F(EnvFaultInjectionTest, PathFilterRestrictsFaultsToOneShard) {
  ASSERT_TRUE(fault_->CreateDirectories(dir_ + "/a").ok());
  ASSERT_TRUE(fault_->CreateDirectories(dir_ + "/b").ok());
  fault_->SetFaultPathFilter(dir_ + "/a/");
  fault_->SetFailProbability(1.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(
        TouchFile(fault_.get(), dir_ + "/a/f" + std::to_string(i)).ok());
    EXPECT_TRUE(
        TouchFile(fault_.get(), dir_ + "/b/f" + std::to_string(i)).ok());
  }
}

TEST_F(EnvFaultInjectionTest, FaultBudgetBoundsABurstThenDisarms) {
  fault_->SetFailProbability(1.0);
  fault_->SetFaultBudget(3);
  // Every op fails until exactly 3 faults have fired; afterwards the env
  // behaves normally without an explicit Heal.
  int failures = 0;
  for (int i = 0; i < 10 && failures < 3; ++i) {
    if (!TouchFile(fault_.get(), dir_ + "/burst").ok()) ++failures;
  }
  EXPECT_EQ(failures, 3);
  EXPECT_EQ(fault_->faults_injected(), 3);
  EXPECT_TRUE(TouchFile(fault_.get(), dir_ + "/after").ok());
  EXPECT_EQ(fault_->faults_injected(), 3);
}

TEST_F(EnvFaultInjectionTest, HealClearsChaosKnobs) {
  fault_->SetFailProbability(1.0);
  fault_->SetFaultPathFilter(dir_);
  fault_->SetFaultBudget(100);
  EXPECT_FALSE(TouchFile(fault_.get(), dir_ + "/pre").ok());
  fault_->Heal();
  EXPECT_TRUE(TouchFile(fault_.get(), dir_ + "/post").ok());
}

TEST_F(EnvFaultInjectionTest, RetryRecoversFromTransientFault) {
  fault_->SetFailOnce(true);
  fault_->FailAtOp(fault_->op_count());  // the very next operation fails once
  int attempts = 0;
  const Status status = RunWithRetry(RetryPolicy{}, [&] {
    ++attempts;
    return WriteStringToFile(dir_ + "/retry", "payload");
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(2, attempts);
  EXPECT_EQ(1, fault_->faults_injected());
  auto content = ReadFileToString(dir_ + "/retry");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ("payload", *content);
}

TEST_F(EnvFaultInjectionTest, RetryGivesUpAfterMaxAttempts) {
  int attempts = 0;
  const Status status = RunWithRetry(RetryPolicy{}, [&] {
    ++attempts;
    return Status::IOError("persistent");
  });
  EXPECT_TRUE(status.IsIOError());
  EXPECT_EQ(3, attempts);
}

TEST_F(EnvFaultInjectionTest, RetryDoesNotRetryCorruption) {
  int attempts = 0;
  const Status status = RunWithRetry(RetryPolicy{}, [&] {
    ++attempts;
    return Status::Corruption("deterministic");
  });
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_EQ(1, attempts);
}

TEST_F(EnvFaultInjectionTest, ShortAppendsFailBuildAndLeaveNothingOpenable) {
  fault_->SetShortAppends(true);
  const std::string idx = dir_ + "/idx";
  EXPECT_FALSE(BuildIndexInMemory(sc_.corpus, idx, build_).ok());
  fault_->Heal();
  // The torn build never reached the commit marker.
  EXPECT_FALSE(Searcher::Open(idx).ok());
}

TEST_F(EnvFaultInjectionTest, CorruptedIndexAppendIsDetectedByChecksums) {
  // The first flushed buffer holds an entire inverted-index file (they are
  // far below the 1 MiB writer buffer); its middle byte lands in the
  // posting/zone/directory region, all of which is checksum-covered.
  const std::string idx = dir_ + "/idx";
  fault_->CorruptNextAppend();
  const auto build = BuildIndexInMemory(sc_.corpus, idx, build_);
  bool detected = !build.ok();
  if (!detected) {
    auto meta = IndexMeta::Load(idx);
    ASSERT_TRUE(meta.ok());
    for (uint32_t func = 0; func < meta->k && !detected; ++func) {
      auto reader =
          InvertedIndexReader::Open(IndexMeta::InvertedIndexPath(idx, func));
      if (!reader.ok()) {
        detected = true;
        break;
      }
      std::vector<PostedWindow> windows;
      for (const ListMeta& list : reader->directory()) {
        windows.clear();
        if (!reader->ReadList(list, &windows).ok()) {
          detected = true;
          break;
        }
      }
    }
  }
  EXPECT_TRUE(detected) << "a flipped bit survived every checksum";
}

TEST_F(EnvFaultInjectionTest, CorruptedAppendNeverYieldsSilentZoneProbes) {
  // Zone probes read only a slice of a list, so they cannot always verify
  // the full-list CRC. The contract after the probe hardening: a probe over
  // a corrupted file either (a) returns Corruption itself, (b) returns the
  // same windows as a clean index, or (c) differs — but then the full-list
  // read of that list MUST flag Corruption, so an fsck-style scan always
  // catches what a probe might miss. No fourth outcome.
  build_.zone_step = 4;
  build_.zone_threshold = 16;  // plenty of zoned lists at vocab 150

  const std::string clean_idx = dir_ + "/clean";
  ASSERT_TRUE(BuildIndexInMemory(sc_.corpus, clean_idx, build_).ok());

  const std::string idx = dir_ + "/idx";
  fault_->CorruptNextAppend();
  const auto build = BuildIndexInMemory(sc_.corpus, idx, build_);
  if (!build.ok()) return;  // flagged before publishing — fine

  auto meta = IndexMeta::Load(idx);
  ASSERT_TRUE(meta.ok());
  bool detected = false;
  size_t zoned_lists = 0;
  for (uint32_t func = 0; func < meta->k; ++func) {
    auto clean =
        InvertedIndexReader::Open(IndexMeta::InvertedIndexPath(clean_idx, func));
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    auto dirty =
        InvertedIndexReader::Open(IndexMeta::InvertedIndexPath(idx, func));
    if (!dirty.ok()) {
      detected = true;
      continue;
    }
    for (const ListMeta& clean_list : clean->directory()) {
      const ListMeta* dirty_list = dirty->FindList(clean_list.key);
      if (dirty_list == nullptr || dirty_list->count != clean_list.count) {
        detected = true;  // directory drift is only reachable via corruption
        continue;
      }
      std::vector<PostedWindow> full;
      const bool full_read_corrupt =
          !dirty->ReadList(*dirty_list, &full).ok();
      detected = detected || full_read_corrupt;
      if (!dirty->zoned(*dirty_list)) continue;
      ++zoned_lists;
      for (TextId text = 0; text < meta->num_texts; ++text) {
        std::vector<PostedWindow> expected, got;
        ASSERT_TRUE(
            clean->ReadWindowsForText(clean_list, text, &expected).ok());
        const Status probe =
            dirty->ReadWindowsForText(*dirty_list, text, &got);
        if (!probe.ok()) {
          EXPECT_TRUE(probe.IsCorruption()) << probe.ToString();
          detected = true;
          continue;
        }
        const bool same =
            got.size() == expected.size() &&
            std::equal(got.begin(), got.end(), expected.begin(),
                       [](const PostedWindow& a, const PostedWindow& b) {
                         return a.text == b.text && a.l == b.l &&
                                a.c == b.c && a.r == b.r;
                       });
        if (!same) {
          detected = true;
          EXPECT_TRUE(full_read_corrupt)
              << "silent probe divergence invisible to a full-list read "
                 "(func " << func << ", key " << clean_list.key
              << ", text " << text << ")";
        }
      }
    }
  }
  ASSERT_GT(zoned_lists, 0u) << "fixture produced no zoned lists";
  EXPECT_TRUE(detected) << "a flipped bit survived every checksum and probe";
}

// ---- positional-read routing (regression: query-path preads must consume
// ---- fault-injection ops like every other file operation) ----

TEST_F(EnvFaultInjectionTest, ReadAtCountsOpsAndHonorsFaults) {
  const std::string path = dir_ + "/blob";
  ASSERT_TRUE(WriteStringToFile(path, std::string(4096, 'x')).ok());
  auto reader = FileReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  char buf[64];
  const int64_t before = fault_->op_count();
  ASSERT_TRUE(reader->ReadAt(1000, buf, sizeof(buf)).ok());
  EXPECT_GT(fault_->op_count(), before)
      << "positional reads bypass the fault-injection env";

  fault_->SetFailOnce(true);
  fault_->FailAtOp(fault_->op_count());  // the very next pread fails once
  EXPECT_TRUE(reader->ReadAt(0, buf, sizeof(buf)).IsIOError());
  EXPECT_EQ(1, fault_->faults_injected());
  EXPECT_TRUE(reader->ReadAt(0, buf, sizeof(buf)).ok());  // disarmed
}

TEST_F(EnvFaultInjectionTest, ShortPositionalReadsSurfaceAsIOError) {
  const std::string path = dir_ + "/blob";
  ASSERT_TRUE(WriteStringToFile(path, std::string(4096, 'x')).ok());
  auto reader = FileReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  char buf[64];
  fault_->SetShortReads(true);
  const Status status = reader->ReadAt(0, buf, sizeof(buf));
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_NE(status.ToString().find("short read"), std::string::npos)
      << status.ToString();
  fault_->Heal();
  EXPECT_TRUE(reader->ReadAt(0, buf, sizeof(buf)).ok());
}

TEST_F(EnvFaultInjectionTest, QueryPreadsRouteThroughEnv) {
  const std::string idx = dir_ + "/idx";
  ASSERT_TRUE(BuildIndexInMemory(sc_.corpus, idx, build_).ok());

  auto searcher = Searcher::Open(idx);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  const auto queries = Queries();
  const int64_t before = fault_->op_count();
  auto baseline = RunQueries(*searcher, queries);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_GT(fault_->op_count(), before)
      << "query-path preads bypass the fault-injection env";

  // A fault armed on the next operation must surface through the query.
  fault_->SetFailOnce(true);
  fault_->FailAtOp(fault_->op_count());
  auto failed = RunQueries(*searcher, queries);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
  EXPECT_EQ(1, fault_->faults_injected());

  // With the fault disarmed the same searcher answers again — and a read
  // retry policy rides out the transient fault without failing the query.
  auto healed = RunQueries(*searcher, queries);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(*baseline, *healed);

  fault_->SetFailOnce(true);
  fault_->FailAtOp(fault_->op_count());
  SearchOptions retrying;
  retrying.theta = 0.5;
  retrying.read_retry.max_attempts = 3;
  retrying.read_retry.initial_backoff_micros = 1;
  auto result = searcher->Search(queries[0], retrying);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(2, fault_->faults_injected());
}

TEST_F(EnvFaultInjectionTest, CorruptedCorpusAppendIsDetectedByChecksums) {
  const std::string path = dir_ + "/corpus.ndc";
  auto writer = CorpusFileWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->AppendCorpus(sc_.corpus).ok());
  // Everything is still in the writer buffer; the corrupted append is the
  // whole file image, so the flipped bit lands mid-records.
  fault_->CorruptNextAppend();
  ASSERT_TRUE(writer->Finish().ok());

  auto reader = CorpusFileReader::Open(path);
  bool detected = !reader.ok();
  if (!detected) {
    auto all = reader->ReadAll();
    detected = !all.ok();
  }
  EXPECT_TRUE(detected) << "a flipped bit survived every corpus checksum";
}

}  // namespace
}  // namespace ndss
