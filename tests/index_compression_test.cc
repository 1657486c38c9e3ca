// Tests for the delta+varint compressed posting-list format (format v2),
// including varint codecs, roundtrips, zone probes, builder integration,
// and searcher equivalence with the raw format.

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "corpusgen/synthetic.h"
#include "index/index_builder.h"
#include "index/inverted_index_reader.h"
#include "index/inverted_index_writer.h"
#include "query/searcher.h"

namespace ndss {
namespace {

TEST(VarintTest, RoundTrip32) {
  std::string buffer;
  const uint32_t values[] = {0, 1, 127, 128, 300, 16383, 16384,
                             0xffffffffu};
  for (uint32_t value : values) PutVarint32(&buffer, value);
  const char* p = buffer.data();
  const char* limit = buffer.data() + buffer.size();
  for (uint32_t value : values) {
    uint32_t decoded = 0;
    p = GetVarint32(p, limit, &decoded);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(decoded, value);
  }
  EXPECT_EQ(p, limit);
}

TEST(VarintTest, RoundTrip64) {
  std::string buffer;
  const uint64_t values[] = {0, 1, 0x7f, 0x80, 1ull << 32, ~0ull};
  for (uint64_t value : values) PutVarint64(&buffer, value);
  const char* p = buffer.data();
  const char* limit = buffer.data() + buffer.size();
  for (uint64_t value : values) {
    uint64_t decoded = 0;
    p = GetVarint64(p, limit, &decoded);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(decoded, value);
  }
}

TEST(VarintTest, TruncatedInputReturnsNull) {
  std::string buffer;
  PutVarint32(&buffer, 1000000);
  uint32_t decoded;
  EXPECT_EQ(GetVarint32(buffer.data(), buffer.data() + 1, &decoded), nullptr);
  EXPECT_EQ(GetVarint32(buffer.data(), buffer.data(), &decoded), nullptr);
}

TEST(VarintTest, SmallValuesAreOneByte) {
  std::string buffer;
  PutVarint32(&buffer, 42);
  EXPECT_EQ(buffer.size(), 1u);
  PutVarint32(&buffer, 128);
  EXPECT_EQ(buffer.size(), 3u);
}

class CompressedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ndss_compidx_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".ndx";
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;
};

TEST_F(CompressedIndexTest, RoundTripSingleList) {
  auto writer = InvertedIndexWriter::Create(path_, 0, 8, 4,
                                            index_format::kFormatCompressed);
  ASSERT_TRUE(writer.ok());
  std::vector<PostedWindow> windows;
  Rng rng(3);
  uint32_t text = 0;
  for (int i = 0; i < 100; ++i) {
    text += static_cast<uint32_t>(rng.Uniform(3));
    const uint32_t l = static_cast<uint32_t>(rng.Uniform(1000));
    const uint32_t c = l + static_cast<uint32_t>(rng.Uniform(50));
    windows.push_back(PostedWindow{text, l, c,
                                   c + static_cast<uint32_t>(rng.Uniform(50))});
  }
  ASSERT_TRUE(writer->BeginList(7).ok());
  ASSERT_TRUE(writer->AddWindows(windows.data(), windows.size()).ok());
  ASSERT_TRUE(writer->Finish().ok());

  auto reader = InvertedIndexReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->format(), index_format::kFormatCompressed);
  const ListMeta* meta = reader->FindList(7);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->count, windows.size());
  EXPECT_LT(meta->list_bytes, windows.size() * sizeof(PostedWindow))
      << "compression should beat the raw encoding on small deltas";
  std::vector<PostedWindow> loaded;
  ASSERT_TRUE(reader->ReadList(*meta, &loaded).ok());
  EXPECT_EQ(loaded, windows);
}

TEST_F(CompressedIndexTest, ZoneProbeMatchesFullScan) {
  auto writer = InvertedIndexWriter::Create(path_, 0, 8, 16,
                                            index_format::kFormatCompressed);
  ASSERT_TRUE(writer.ok());
  std::vector<PostedWindow> all;
  Rng rng(9);
  for (TextId text = 0; text < 300; ++text) {
    const size_t copies = 1 + rng.Uniform(3);
    for (size_t i = 0; i < copies; ++i) {
      const uint32_t l = static_cast<uint32_t>(rng.Uniform(100));
      all.push_back(PostedWindow{text, l, l + 2, l + 10});
    }
  }
  ASSERT_TRUE(writer->BeginList(5).ok());
  ASSERT_TRUE(writer->AddWindows(all.data(), all.size()).ok());
  ASSERT_TRUE(writer->Finish().ok());

  auto reader = InvertedIndexReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  const ListMeta* meta = reader->FindList(5);
  ASSERT_NE(meta, nullptr);
  ASSERT_GT(reader->zone_count(*meta), 1u);
  for (TextId text : {0u, 1u, 149u, 150u, 299u, 999u}) {
    std::vector<PostedWindow> expected;
    for (const PostedWindow& w : all) {
      if (w.text == text) expected.push_back(w);
    }
    std::vector<PostedWindow> got;
    ASSERT_TRUE(reader->ReadWindowsForText(*meta, text, &got).ok());
    EXPECT_EQ(got, expected) << "text " << text;
  }
}

TEST_F(CompressedIndexTest, TruncatedListDetected) {
  auto writer = InvertedIndexWriter::Create(path_, 0, 64, 1000000,
                                            index_format::kFormatCompressed);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->BeginList(1).ok());
  for (TextId t = 0; t < 50; ++t) {
    PostedWindow w{t, 0, 1, 2};
    ASSERT_TRUE(writer->AddWindow(w).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());
  auto reader = InvertedIndexReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  // Forge a directory entry claiming more windows than encoded.
  ListMeta forged = *reader->FindList(1);
  forged.count += 10;
  std::vector<PostedWindow> out;
  EXPECT_TRUE(reader->ReadList(forged, &out).IsCorruption());
}

class CompressedBuildTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ndss_compbuild_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(CompressedBuildTest, CompressedIndexIsSmallerAndEquivalent) {
  SyntheticCorpusOptions corpus_options;
  corpus_options.num_texts = 150;
  corpus_options.vocab_size = 500;
  corpus_options.plant_rate = 0.4;
  corpus_options.seed = 66;
  SyntheticCorpus sc = GenerateSyntheticCorpus(corpus_options);

  IndexBuildOptions raw_build;
  raw_build.k = 6;
  raw_build.t = 20;
  raw_build.zone_step = 16;
  raw_build.zone_threshold = 64;
  IndexBuildOptions comp_build = raw_build;
  comp_build.posting_format = index_format::kFormatCompressed;

  auto raw_stats = BuildIndexInMemory(sc.corpus, dir_ + "/raw", raw_build);
  auto comp_stats = BuildIndexInMemory(sc.corpus, dir_ + "/comp", comp_build);
  ASSERT_TRUE(raw_stats.ok() && comp_stats.ok());
  EXPECT_EQ(raw_stats->num_windows, comp_stats->num_windows);
  EXPECT_LT(comp_stats->index_bytes, raw_stats->index_bytes);

  auto raw_searcher = Searcher::Open(dir_ + "/raw");
  auto comp_searcher = Searcher::Open(dir_ + "/comp");
  ASSERT_TRUE(raw_searcher.ok() && comp_searcher.ok());

  Rng rng(4);
  for (int q = 0; q < 10; ++q) {
    const TextId source = static_cast<TextId>(rng.Uniform(150));
    const auto text = sc.corpus.text(source);
    const uint32_t length =
        std::min<uint32_t>(48, static_cast<uint32_t>(text.size()));
    const uint32_t begin =
        static_cast<uint32_t>(rng.Uniform(text.size() - length + 1));
    const std::vector<Token> query =
        PerturbSequence(text, begin, length, 0.1, 500, rng);
    for (double theta : {0.6, 0.9}) {
      SearchOptions options;
      options.theta = theta;
      options.long_list_threshold = 64;
      auto raw_result = raw_searcher->Search(query, options);
      auto comp_result = comp_searcher->Search(query, options);
      ASSERT_TRUE(raw_result.ok() && comp_result.ok());
      ASSERT_EQ(raw_result->rectangles.size(),
                comp_result->rectangles.size());
      for (size_t i = 0; i < raw_result->rectangles.size(); ++i) {
        EXPECT_EQ(raw_result->rectangles[i].text,
                  comp_result->rectangles[i].text);
        EXPECT_EQ(raw_result->rectangles[i].rect.collisions,
                  comp_result->rectangles[i].rect.collisions);
      }
    }
  }
}

TEST_F(CompressedBuildTest, ExternalBuildSupportsCompression) {
  SyntheticCorpusOptions corpus_options;
  corpus_options.num_texts = 80;
  corpus_options.vocab_size = 400;
  corpus_options.seed = 67;
  SyntheticCorpus sc = GenerateSyntheticCorpus(corpus_options);
  ASSERT_TRUE(CreateDirectories(dir_).ok());
  const std::string corpus_path = dir_ + "/corpus.crp";
  ASSERT_TRUE(WriteCorpusFile(corpus_path, sc.corpus).ok());

  IndexBuildOptions options;
  options.k = 4;
  options.t = 20;
  options.posting_format = index_format::kFormatCompressed;
  options.batch_tokens = 2000;
  auto stats = BuildIndexExternal(corpus_path, dir_ + "/idx", options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  auto mem_stats = BuildIndexInMemory(sc.corpus, dir_ + "/mem", options);
  ASSERT_TRUE(mem_stats.ok());
  EXPECT_EQ(stats->num_windows, mem_stats->num_windows);

  // Both open and agree on a query.
  auto a = Searcher::Open(dir_ + "/idx");
  auto b = Searcher::Open(dir_ + "/mem");
  ASSERT_TRUE(a.ok() && b.ok());
  const auto text = sc.corpus.text(0);
  const std::vector<Token> query(text.begin(), text.begin() + 30);
  SearchOptions search;
  search.theta = 0.7;
  auto ra = a->Search(query, search);
  auto rb = b->Search(query, search);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->rectangles.size(), rb->rectangles.size());
}

}  // namespace
}  // namespace ndss
