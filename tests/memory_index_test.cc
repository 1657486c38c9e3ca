#include "index/memory_index.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "corpusgen/synthetic.h"
#include "index/index_builder.h"
#include "index/inverted_index_reader.h"
#include "query/searcher.h"

namespace ndss {
namespace {

SyntheticCorpus SmallCorpus() {
  SyntheticCorpusOptions options;
  options.num_texts = 60;
  options.min_text_length = 50;
  options.max_text_length = 120;
  options.vocab_size = 300;
  options.plant_rate = 0.4;
  options.seed = 41;
  return GenerateSyntheticCorpus(options);
}

TEST(InMemoryIndexTest, WindowCountMatchesDiskBuild) {
  SyntheticCorpus sc = SmallCorpus();
  SketchScheme family(SketchSchemeId::kIndependent, 4, 0x5eed5eed5eed5eedULL);
  uint64_t total = 0;
  for (uint32_t func = 0; func < 4; ++func) {
    InMemoryInvertedIndex index(sc.corpus, family, func, 20);
    total += index.num_windows();
  }
  const std::string dir = ::testing::TempDir() + "/ndss_memidx_cmp";
  std::filesystem::remove_all(dir);
  IndexBuildOptions build;
  build.k = 4;
  build.t = 20;
  auto stats = BuildIndexInMemory(sc.corpus, dir, build);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(total, stats->num_windows);
  std::filesystem::remove_all(dir);
}

TEST(InMemoryIndexTest, FindListReturnsTheDirectoryEntry) {
  SyntheticCorpus sc = SmallCorpus();
  SketchScheme family(SketchSchemeId::kIndependent, 2, 0x5eed5eed5eed5eedULL);
  InMemoryInvertedIndex index(sc.corpus, family, 1, 20);
  const std::vector<ListMeta>& directory = index.directory();
  ASSERT_GT(directory.size(), 2u);
  for (size_t i = 0; i < directory.size(); ++i) {
    EXPECT_EQ(index.FindList(directory[i].key), &directory[i]) << i;
  }
  std::vector<Token> absent = {directory.back().key + 1, 0xffffffffu};
  if (directory.front().key > 0) absent.push_back(directory.front().key - 1);
  for (size_t i = 1; i < directory.size(); ++i) {
    if (directory[i].key - directory[i - 1].key > 1) {
      absent.push_back(directory[i].key - 1);
    }
  }
  ASSERT_GT(absent.size(), 2u) << "no gap between keys to probe";
  for (Token key : absent) EXPECT_EQ(index.FindList(key), nullptr) << key;
}

TEST(InMemoryIndexTest, PointLookupMatchesFullList) {
  SyntheticCorpus sc = SmallCorpus();
  SketchScheme family(SketchSchemeId::kIndependent, 1, 7);
  InMemoryInvertedIndex index(sc.corpus, family, 0, 10);
  ASSERT_FALSE(index.directory().empty());
  for (const ListMeta& meta : index.directory()) {
    std::vector<PostedWindow> full;
    ASSERT_TRUE(index.ReadList(meta, &full).ok());
    ASSERT_EQ(full.size(), meta.count);
    // Probe a few texts present and one absent.
    std::vector<PostedWindow> probed;
    ASSERT_TRUE(index.ReadWindowsForText(meta, full.front().text,
                                         &probed).ok());
    ASSERT_FALSE(probed.empty());
    for (const PostedWindow& w : probed) {
      EXPECT_EQ(w.text, full.front().text);
    }
    probed.clear();
    ASSERT_TRUE(index.ReadWindowsForText(meta, 999999, &probed).ok());
    EXPECT_TRUE(probed.empty());
    break;  // one list is representative; the loop guards emptiness
  }
}

TEST(InMemoryIndexTest, SearcherInMemoryMatchesDiskSearcher) {
  SyntheticCorpus sc = SmallCorpus();
  IndexBuildOptions build;
  build.k = 6;
  build.t = 15;
  const std::string dir = ::testing::TempDir() + "/ndss_memidx_search";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(BuildIndexInMemory(sc.corpus, dir, build).ok());
  auto disk = Searcher::Open(dir);
  auto memory = Searcher::InMemory(sc.corpus, build);
  ASSERT_TRUE(disk.ok() && memory.ok());

  Rng rng(3);
  for (int q = 0; q < 8; ++q) {
    const TextId source = static_cast<TextId>(rng.Uniform(60));
    const auto text = sc.corpus.text(source);
    const uint32_t length =
        std::min<uint32_t>(30, static_cast<uint32_t>(text.size()));
    const std::vector<Token> query =
        PerturbSequence(text, 0, length, 0.1, 300, rng);
    for (double theta : {0.5, 0.8, 1.0}) {
      SearchOptions options;
      options.theta = theta;
      options.use_prefix_filter = false;
      auto a = disk->Search(query, options);
      auto b = memory->Search(query, options);
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(a->rectangles.size(), b->rectangles.size())
          << "q=" << q << " theta=" << theta;
      for (size_t i = 0; i < a->rectangles.size(); ++i) {
        EXPECT_EQ(a->rectangles[i].text, b->rectangles[i].text);
        EXPECT_EQ(a->rectangles[i].rect.collisions,
                  b->rectangles[i].rect.collisions);
        EXPECT_EQ(a->rectangles[i].rect.x_begin,
                  b->rectangles[i].rect.x_begin);
        EXPECT_EQ(a->rectangles[i].rect.y_end, b->rectangles[i].rect.y_end);
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(InMemoryIndexTest, PrefixFilterPathWorksInMemory) {
  SyntheticCorpus sc = SmallCorpus();
  IndexBuildOptions build;
  build.k = 8;
  build.t = 15;
  auto searcher = Searcher::InMemory(sc.corpus, build);
  ASSERT_TRUE(searcher.ok());
  const auto text = sc.corpus.text(0);
  const std::vector<Token> query(text.begin(), text.begin() + 30);
  SearchOptions with_filter;
  with_filter.theta = 0.6;
  with_filter.use_prefix_filter = true;
  with_filter.long_list_threshold = 8;  // force the two-pass path
  SearchOptions without_filter = with_filter;
  without_filter.use_prefix_filter = false;
  auto a = searcher->Search(query, with_filter);
  auto b = searcher->Search(query, without_filter);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rectangles.size(), b->rectangles.size());
}

TEST(InMemoryIndexTest, ListsEqualDiskListsOnTinyVocab) {
  // Eight tokens: every text holds many windows of one key, so the order
  // inside each (key, text) run is exercised hard.
  SyntheticCorpusOptions corpus_options;
  corpus_options.num_texts = 24;
  corpus_options.min_text_length = 20;
  corpus_options.max_text_length = 120;
  corpus_options.vocab_size = 8;
  corpus_options.min_plant_length = 10;
  corpus_options.max_plant_length = 30;
  corpus_options.seed = 9;
  const Corpus corpus = GenerateSyntheticCorpus(corpus_options).corpus;
  const std::string dir = ::testing::TempDir() + "/ndss_memidx_tiny";
  for (SketchSchemeId sketch :
       {SketchSchemeId::kIndependent, SketchSchemeId::kCMinHash}) {
    for (WindowGenMethod method : {WindowGenMethod::kMonotonicStack,
                                   WindowGenMethod::kRmqDivideConquer}) {
      for (uint32_t t : {1u, 15u}) {
        SCOPED_TRACE(std::string(SketchSchemeName(sketch)) + " method=" +
                     std::to_string(static_cast<int>(method)) +
                     " t=" + std::to_string(t));
        std::filesystem::remove_all(dir);
        IndexBuildOptions build;
        build.k = 3;
        build.t = t;
        build.sketch = sketch;
        build.window_method = method;
        build.num_threads = 3;
        ASSERT_TRUE(BuildIndexInMemory(corpus, dir, build).ok());
        const SketchScheme scheme(sketch, build.k, build.seed);
        const CorpusBaseRows base_rows =
            CorpusBaseRows::Build(scheme, corpus, 1);
        for (uint32_t func = 0; func < build.k; ++func) {
          auto disk =
              InvertedIndexReader::Open(IndexMeta::InvertedIndexPath(dir, func));
          ASSERT_TRUE(disk.ok()) << disk.status().ToString();
          const CorpusBaseRows* const row_choices[] = {&base_rows, nullptr};
          for (const CorpusBaseRows* rows : row_choices) {
            InMemoryInvertedIndex memory(corpus, scheme, func, t, method, rows);
            ASSERT_EQ(memory.directory().size(), disk->directory().size());
            for (size_t i = 0; i < disk->directory().size(); ++i) {
              const ListMeta& want = disk->directory()[i];
              const ListMeta& got = memory.directory()[i];
              ASSERT_EQ(got.key, want.key);
              std::vector<PostedWindow> want_list, got_list;
              ASSERT_TRUE(disk->ReadList(want, &want_list).ok());
              ASSERT_TRUE(memory.ReadList(got, &got_list).ok());
              EXPECT_EQ(got_list, want_list)
                  << "func " << func << " key " << want.key;
            }
          }
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(InMemoryIndexTest, InvalidOptionsRejected) {
  Corpus corpus;
  IndexBuildOptions build;
  build.k = 0;
  EXPECT_FALSE(Searcher::InMemory(corpus, build).ok());
  build.k = 4;
  build.t = 0;
  EXPECT_FALSE(Searcher::InMemory(corpus, build).ok());
}

}  // namespace
}  // namespace ndss
