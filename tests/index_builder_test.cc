#include "index/index_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "corpusgen/synthetic.h"
#include "index/inverted_index_reader.h"
#include "sketch/sketch_scheme.h"
#include "text/corpus_file.h"
#include "window/window_generator.h"

namespace ndss {
namespace {

class IndexBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ndss_build_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static Corpus SmallCorpus(uint32_t num_texts = 100, uint64_t seed = 5) {
    SyntheticCorpusOptions options;
    options.num_texts = num_texts;
    options.min_text_length = 60;
    options.max_text_length = 200;
    options.vocab_size = 300;
    options.plant_rate = 0.3;
    options.min_plant_length = 30;
    options.max_plant_length = 60;
    options.seed = seed;
    return GenerateSyntheticCorpus(options).corpus;
  }

  static IndexBuildOptions SmallBuild() {
    IndexBuildOptions options;
    options.k = 4;
    options.t = 20;
    options.zone_step = 16;
    options.zone_threshold = 64;
    return options;
  }

  /// Every window of the index at `dir` in file order: functions in turn,
  /// then StoredWindows. Text ids are offset by func * 1000000, so windows
  /// of different functions never compare equal.
  static std::vector<KeyedWindow> DumpIndex(const std::string& dir,
                                            uint32_t k) {
    std::vector<KeyedWindow> all;
    for (uint32_t func = 0; func < k; ++func) {
      for (KeyedWindow w : StoredWindows(dir, func)) {
        w.text += func * 1000000u;
        all.push_back(w);
      }
    }
    return all;
  }

  /// What DumpIndex must read from any build of `corpus` with `options`:
  /// ReferenceWindows of every function, offset like DumpIndex.
  static std::vector<KeyedWindow> ReferenceDump(
      const Corpus& corpus, const IndexBuildOptions& options) {
    std::vector<KeyedWindow> all;
    for (uint32_t func = 0; func < options.k; ++func) {
      for (KeyedWindow w : ReferenceWindows(corpus, options, func)) {
        w.text += func * 1000000u;
        all.push_back(w);
      }
    }
    return all;
  }

  /// Function `func`'s windows exactly as stored: lists in directory
  /// (key) order, windows in list order. Nothing is re-sorted, so a list
  /// written out of (text, l, r) order shows.
  static std::vector<KeyedWindow> StoredWindows(const std::string& dir,
                                                uint32_t func) {
    std::vector<KeyedWindow> stored;
    auto reader =
        InvertedIndexReader::Open(IndexMeta::InvertedIndexPath(dir, func));
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    if (!reader.ok()) return stored;
    for (const ListMeta& meta : reader->directory()) {
      std::vector<PostedWindow> windows;
      EXPECT_TRUE(reader->ReadList(meta, &windows).ok());
      for (const PostedWindow& w : windows) {
        stored.push_back(KeyedWindow{meta.key, w.text, w.l, w.c, w.r});
      }
    }
    return stored;
  }

  /// Function `func`'s windows from the reference generator (linear-scan
  /// Algorithm 2, token-by-token hashing), ordered by a full comparison
  /// sort: what every build must store.
  static std::vector<KeyedWindow> ReferenceWindows(
      const Corpus& corpus, const IndexBuildOptions& options, uint32_t func) {
    const SketchScheme scheme(options.sketch, options.k, options.seed);
    std::vector<KeyedWindow> all;
    std::vector<CompactWindow> windows;
    for (size_t i = 0; i < corpus.num_texts(); ++i) {
      windows.clear();
      GenerateCompactWindowsReference(scheme, func, corpus.text(i), options.t,
                                      &windows);
      for (const CompactWindow& w : windows) {
        all.push_back(KeyedWindow{corpus.text(i)[w.c],
                                  static_cast<TextId>(i), w.l, w.c, w.r});
      }
    }
    std::sort(all.begin(), all.end(), KeyedWindowLess);
    return all;
  }

  /// The bytes of every file an index build publishes.
  static std::vector<std::string> IndexFiles(const std::string& dir,
                                             uint32_t k) {
    std::vector<std::string> files;
    auto meta = ReadFileToString(dir + "/index.meta");
    EXPECT_TRUE(meta.ok());
    files.push_back(meta.ok() ? *meta : "");
    for (uint32_t func = 0; func < k; ++func) {
      auto bytes = ReadFileToString(IndexMeta::InvertedIndexPath(dir, func));
      EXPECT_TRUE(bytes.ok());
      files.push_back(bytes.ok() ? *bytes : "");
    }
    return files;
  }

  std::string dir_;
};

/// A corpus over 8 tokens: one text holds many windows sharing a key, so
/// the order inside each (key, text) run is exercised hard.
Corpus TinyVocabCorpus() {
  SyntheticCorpusOptions options;
  options.num_texts = 24;
  options.min_text_length = 20;
  options.max_text_length = 120;
  options.vocab_size = 8;
  options.plant_rate = 0.3;
  options.min_plant_length = 10;
  options.max_plant_length = 30;
  options.seed = 9;
  return GenerateSyntheticCorpus(options).corpus;
}

constexpr SketchSchemeId kSketches[] = {SketchSchemeId::kIndependent,
                                        SketchSchemeId::kCMinHash};
constexpr index_format::PostingFormat kFormats[] = {
    index_format::kFormatRaw, index_format::kFormatCompressed};

TEST_F(IndexBuilderTest, BuildWritesMetaAndFiles) {
  Corpus corpus = SmallCorpus();
  auto stats = BuildIndexInMemory(corpus, dir_, SmallBuild());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->num_windows, 0u);
  EXPECT_GT(stats->index_bytes, 0u);

  auto meta = IndexMeta::Load(dir_);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->k, 4u);
  EXPECT_EQ(meta->t, 20u);
  EXPECT_EQ(meta->num_texts, corpus.num_texts());
  EXPECT_EQ(meta->total_tokens, corpus.total_tokens());
  for (uint32_t func = 0; func < 4; ++func) {
    EXPECT_TRUE(FileExists(IndexMeta::InvertedIndexPath(dir_, func)));
  }
}

TEST_F(IndexBuilderTest, IndexContainsExactlyTheGeneratedWindows) {
  Corpus corpus = SmallCorpus(40);
  IndexBuildOptions options = SmallBuild();
  auto stats = BuildIndexInMemory(corpus, dir_, options);
  ASSERT_TRUE(stats.ok());

  // Regenerate windows directly and compare against the index contents.
  SketchScheme family(SketchSchemeId::kIndependent, options.k, options.seed);
  WindowGenerator generator;
  std::vector<KeyedWindow> expected;
  for (uint32_t func = 0; func < options.k; ++func) {
    const size_t func_begin = expected.size();
    for (size_t i = 0; i < corpus.num_texts(); ++i) {
      std::vector<CompactWindow> windows;
      generator.Generate(family, func, corpus.text(i), options.t, &windows);
      for (const CompactWindow& w : windows) {
        expected.push_back(KeyedWindow{corpus.text(i)[w.c],
                                       static_cast<TextId>(i) +
                                           func * 1000000u,
                                       w.l, w.c, w.r});
      }
    }
    // File order: each function's lists by key, each list by (text, l, r).
    std::sort(expected.begin() + func_begin, expected.end(), KeyedWindowLess);
  }
  EXPECT_EQ(DumpIndex(dir_, options.k), expected);
  EXPECT_EQ(stats->num_windows, expected.size());
}

TEST_F(IndexBuilderTest, ParallelBuildMatchesSerial) {
  Corpus corpus = SmallCorpus(60);
  IndexBuildOptions serial = SmallBuild();
  IndexBuildOptions parallel = SmallBuild();
  parallel.num_threads = 4;
  const std::string serial_dir = dir_ + "/serial";
  const std::string parallel_dir = dir_ + "/parallel";
  ASSERT_TRUE(BuildIndexInMemory(corpus, serial_dir, serial).ok());
  ASSERT_TRUE(BuildIndexInMemory(corpus, parallel_dir, parallel).ok());
  const std::vector<KeyedWindow> expected = ReferenceDump(corpus, serial);
  EXPECT_EQ(DumpIndex(serial_dir, serial.k), expected);
  EXPECT_EQ(DumpIndex(parallel_dir, serial.k), expected);
}

TEST_F(IndexBuilderTest, ExternalBuildMatchesInMemory) {
  Corpus corpus = SmallCorpus(80);
  const std::string corpus_path = dir_ + "/corpus.crp";
  ASSERT_TRUE(CreateDirectories(dir_).ok());
  ASSERT_TRUE(WriteCorpusFile(corpus_path, corpus).ok());

  IndexBuildOptions options = SmallBuild();
  const std::string mem_dir = dir_ + "/mem";
  ASSERT_TRUE(BuildIndexInMemory(corpus, mem_dir, options).ok());

  IndexBuildOptions external = options;
  external.batch_tokens = 2000;   // force many batches
  external.num_partitions = 4;
  const std::string ext_dir = dir_ + "/ext";
  auto stats = BuildIndexExternal(corpus_path, ext_dir, external);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->spill_bytes, 0u);

  const std::vector<KeyedWindow> expected = ReferenceDump(corpus, options);
  EXPECT_EQ(DumpIndex(mem_dir, options.k), expected);
  EXPECT_EQ(DumpIndex(ext_dir, options.k), expected);
}

TEST_F(IndexBuilderTest, ExternalBuildWithRecursivePartitioning) {
  Corpus corpus = SmallCorpus(80);
  const std::string corpus_path = dir_ + "/corpus.crp";
  ASSERT_TRUE(CreateDirectories(dir_).ok());
  ASSERT_TRUE(WriteCorpusFile(corpus_path, corpus).ok());

  IndexBuildOptions options = SmallBuild();
  const std::string mem_dir = dir_ + "/mem";
  ASSERT_TRUE(BuildIndexInMemory(corpus, mem_dir, options).ok());

  IndexBuildOptions external = options;
  external.batch_tokens = 2000;
  external.num_partitions = 2;
  external.memory_budget_bytes = 4096;  // force recursive re-partitioning
  const std::string ext_dir = dir_ + "/ext";
  auto stats = BuildIndexExternal(corpus_path, ext_dir, external);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const std::vector<KeyedWindow> expected = ReferenceDump(corpus, options);
  EXPECT_EQ(DumpIndex(mem_dir, options.k), expected);
  EXPECT_EQ(DumpIndex(ext_dir, options.k), expected);
  // No spill files may remain.
  size_t spills = 0;
  for (const auto& entry : std::filesystem::directory_iterator(ext_dir)) {
    if (entry.path().filename().string().rfind("spill.", 0) == 0) ++spills;
  }
  EXPECT_EQ(spills, 0u);
}

TEST_F(IndexBuilderTest, OrderedBuildsMatchSortReferenceAtEveryThreadCount) {
  const Corpus corpus = TinyVocabCorpus();
  for (SketchSchemeId sketch : kSketches) {
    for (index_format::PostingFormat format : kFormats) {
      for (WindowGenMethod method : {WindowGenMethod::kMonotonicStack,
                                     WindowGenMethod::kRmqDivideConquer}) {
        for (uint32_t k : {1u, 3u, 8u}) {
          for (uint32_t t : {1u, 15u}) {
            SCOPED_TRACE(std::string(SketchSchemeName(sketch)) +
                         " format=" + std::to_string(format) + " method=" +
                         std::to_string(static_cast<int>(method)) +
                         " k=" + std::to_string(k) +
                         " t=" + std::to_string(t));
            IndexBuildOptions options = SmallBuild();
            options.sketch = sketch;
            options.posting_format = format;
            options.window_method = method;
            options.k = k;
            options.t = t;
            options.zone_step = 4;
            options.zone_threshold = 16;
            const std::string serial_dir = dir_ + "/serial";
            ASSERT_TRUE(BuildIndexInMemory(corpus, serial_dir, options).ok());
            for (uint32_t func = 0; func < k; ++func) {
              ASSERT_EQ(StoredWindows(serial_dir, func),
                        ReferenceWindows(corpus, options, func))
                  << "func " << func;
            }
            const std::vector<std::string> serial = IndexFiles(serial_dir, k);
            for (size_t threads : {2u, 3u, 4u, 7u}) {
              options.num_threads = threads;
              const std::string parallel_dir = dir_ + "/parallel";
              auto stats = BuildIndexInMemory(corpus, parallel_dir, options);
              ASSERT_TRUE(stats.ok()) << stats.status().ToString();
              const std::vector<std::string> parallel =
                  IndexFiles(parallel_dir, k);
              ASSERT_EQ(parallel.size(), serial.size());
              for (size_t f = 0; f < serial.size(); ++f) {
                EXPECT_TRUE(parallel[f] == serial[f])
                    << "file " << f << " differs at " << threads
                    << " threads";
              }
            }
          }
        }
      }
    }
  }
}

TEST_F(IndexBuilderTest, TinyExternalBuildsStoreTheInMemoryLists) {
  const Corpus corpus = TinyVocabCorpus();
  const std::string corpus_path = dir_ + "/corpus.crp";
  ASSERT_TRUE(CreateDirectories(dir_).ok());
  ASSERT_TRUE(WriteCorpusFile(corpus_path, corpus).ok());
  for (SketchSchemeId sketch : kSketches) {
    for (index_format::PostingFormat format : kFormats) {
      for (uint32_t t : {1u, 15u}) {
        for (size_t threads : {1u, 4u}) {
          SCOPED_TRACE(std::string(SketchSchemeName(sketch)) +
                       " format=" + std::to_string(format) +
                       " t=" + std::to_string(t) +
                       " threads=" + std::to_string(threads));
          IndexBuildOptions options = SmallBuild();
          options.k = 3;
          options.sketch = sketch;
          options.posting_format = format;
          options.t = t;
          const std::string mem_dir = dir_ + "/mem";
          ASSERT_TRUE(BuildIndexInMemory(corpus, mem_dir, options).ok());

          IndexBuildOptions external = options;
          external.num_threads = threads;
          external.batch_tokens = 200;         // many batches
          external.num_partitions = 3;
          external.memory_budget_bytes = 512;  // recursive re-partitioning
          const std::string ext_dir = dir_ + "/ext";
          auto stats = BuildIndexExternal(corpus_path, ext_dir, external);
          ASSERT_TRUE(stats.ok()) << stats.status().ToString();
          uint64_t windows = 0;
          for (uint32_t func = 0; func < options.k; ++func) {
            const std::vector<KeyedWindow> stored =
                StoredWindows(ext_dir, func);
            EXPECT_EQ(stored, StoredWindows(mem_dir, func)) << "func " << func;
            windows += stored.size();
          }
          EXPECT_EQ(stats->num_windows, windows);
          for (const auto& entry :
               std::filesystem::directory_iterator(ext_dir)) {
            EXPECT_NE(entry.path().filename().string().rfind("spill.", 0), 0u)
                << "leftover " << entry.path();
          }
        }
      }
    }
  }
}

TEST_F(IndexBuilderTest, WindowCountTracksTheorem) {
  // Total windows across a corpus ≈ sum over texts of 2(n+1)/(t+1) - 1.
  Corpus corpus = SmallCorpus(150);
  IndexBuildOptions options = SmallBuild();
  options.k = 8;
  auto stats = BuildIndexInMemory(corpus, dir_, options);
  ASSERT_TRUE(stats.ok());
  double expected = 0;
  for (size_t i = 0; i < corpus.num_texts(); ++i) {
    expected += ExpectedWindowCount(corpus.text_length(i), options.t);
  }
  expected *= options.k;
  EXPECT_NEAR(static_cast<double>(stats->num_windows), expected,
              0.25 * expected);
}

TEST_F(IndexBuilderTest, InvalidOptionsRejected) {
  Corpus corpus = SmallCorpus(5);
  IndexBuildOptions options = SmallBuild();
  options.k = 0;
  EXPECT_FALSE(BuildIndexInMemory(corpus, dir_, options).ok());
  options = SmallBuild();
  options.t = 0;
  EXPECT_FALSE(BuildIndexInMemory(corpus, dir_, options).ok());
}

TEST_F(IndexBuilderTest, IndexSizeInverseInT) {
  Corpus corpus = SmallCorpus(100);
  IndexBuildOptions options = SmallBuild();
  options.t = 20;
  auto small_t = BuildIndexInMemory(corpus, dir_ + "/t20", options);
  options.t = 40;
  auto large_t = BuildIndexInMemory(corpus, dir_ + "/t40", options);
  ASSERT_TRUE(small_t.ok() && large_t.ok());
  EXPECT_GT(small_t->num_windows, large_t->num_windows);
  EXPECT_GT(small_t->index_bytes, large_t->index_bytes);
}

}  // namespace
}  // namespace ndss
