#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "common/random.h"
#include "index/inverted_index_reader.h"
#include "index/inverted_index_writer.h"

namespace ndss {
namespace {

class InvertedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ndss_invidx_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".ndx";
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;
};

TEST_F(InvertedIndexTest, EmptyIndexRoundTrip) {
  auto writer = InvertedIndexWriter::Create(path_, 3, 64, 256);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Finish().ok());
  auto reader = InvertedIndexReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->func(), 3u);
  EXPECT_EQ(reader->num_lists(), 0u);
  EXPECT_EQ(reader->num_windows(), 0u);
  EXPECT_EQ(reader->FindList(5), nullptr);
}

TEST_F(InvertedIndexTest, SingleListRoundTrip) {
  auto writer = InvertedIndexWriter::Create(path_, 0, 64, 256);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->BeginList(42).ok());
  std::vector<PostedWindow> windows = {
      {1, 0, 2, 5}, {1, 6, 8, 9}, {3, 1, 1, 4}, {7, 0, 0, 2}};
  ASSERT_TRUE(writer->AddWindows(windows.data(), windows.size()).ok());
  ASSERT_TRUE(writer->Finish().ok());

  auto reader = InvertedIndexReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  const ListMeta* meta = reader->FindList(42);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->count, 4u);
  std::vector<PostedWindow> loaded;
  ASSERT_TRUE(reader->ReadList(*meta, &loaded).ok());
  EXPECT_EQ(loaded, windows);
}

/// FindList's contract for a source with lists at `keys`: every present
/// key maps to its own directory entry (the very element, not a copy), and
/// keys below, between and above them have none.
void ExpectFindListContract(const InvertedListSource& source,
                            const std::vector<Token>& keys) {
  const std::vector<ListMeta>& directory = source.directory();
  ASSERT_EQ(directory.size(), keys.size());
  for (size_t i = 0; i < directory.size(); ++i) {
    EXPECT_EQ(source.FindList(directory[i].key), &directory[i]) << i;
  }
  std::vector<Token> absent = {0, keys.front() - 1, keys.back() + 1,
                               0xffffffffu};
  for (size_t i = 1; i < keys.size(); ++i) {
    if (keys[i] - keys[i - 1] > 1) absent.push_back(keys[i] - 1);
    if (keys[i] - keys[i - 1] > 2) absent.push_back(keys[i - 1] + 1);
  }
  for (Token key : absent) {
    if (std::binary_search(keys.begin(), keys.end(), key)) continue;
    EXPECT_EQ(source.FindList(key), nullptr) << key;
  }
}

TEST_F(InvertedIndexTest, FindListReturnsTheDirectoryEntry) {
  const std::vector<Token> keys = {3, 4, 9, 100, 101, 5000, 77777};
  auto writer = InvertedIndexWriter::Create(path_, 0, 64, 1 << 30);
  ASSERT_TRUE(writer.ok());
  for (Token key : keys) {
    ASSERT_TRUE(writer->BeginList(key).ok());
    ASSERT_TRUE(writer->AddWindow(PostedWindow{key % 7, 0, 0, 1}).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());
  auto reader = InvertedIndexReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ExpectFindListContract(*reader, keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(reader->directory()[i].key, keys[i]);
  }
}

TEST_F(InvertedIndexTest, UnsortedKeysGetSortedDirectory) {
  auto writer = InvertedIndexWriter::Create(path_, 0, 64, 1 << 30);
  ASSERT_TRUE(writer.ok());
  for (Token key : {50u, 10u, 30u}) {
    ASSERT_TRUE(writer->BeginList(key).ok());
    PostedWindow w{key, 0, 0, 0};
    ASSERT_TRUE(writer->AddWindow(w).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());
  auto reader = InvertedIndexReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->num_lists(), 3u);
  EXPECT_EQ(reader->directory()[0].key, 10u);
  EXPECT_EQ(reader->directory()[1].key, 30u);
  EXPECT_EQ(reader->directory()[2].key, 50u);
  for (Token key : {10u, 30u, 50u}) {
    const ListMeta* meta = reader->FindList(key);
    ASSERT_NE(meta, nullptr);
    std::vector<PostedWindow> loaded;
    ASSERT_TRUE(reader->ReadList(*meta, &loaded).ok());
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].text, key);
  }
}

TEST_F(InvertedIndexTest, DuplicateKeyRejected) {
  auto writer = InvertedIndexWriter::Create(path_, 0, 64, 256);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->BeginList(1).ok());
  ASSERT_TRUE(writer->BeginList(2).ok());
  ASSERT_TRUE(writer->BeginList(1).ok());  // caught at Finish
  EXPECT_FALSE(writer->Finish().ok());
}

TEST_F(InvertedIndexTest, WriteSortedGroupsByKey) {
  std::vector<KeyedWindow> keyed;
  Rng rng(3);
  for (uint32_t i = 0; i < 500; ++i) {
    keyed.push_back(KeyedWindow{static_cast<Token>(rng.Uniform(20)),
                                static_cast<TextId>(rng.Uniform(50)),
                                0, 1, 2});
  }
  std::sort(keyed.begin(), keyed.end(), KeyedWindowLess);
  auto writer = InvertedIndexWriter::Create(path_, 0, 64, 256);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->WriteSorted(keyed.data(), keyed.size()).ok());
  ASSERT_TRUE(writer->Finish().ok());

  auto reader = InvertedIndexReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->num_windows(), keyed.size());
  uint64_t total = 0;
  for (const ListMeta& meta : reader->directory()) total += meta.count;
  EXPECT_EQ(total, keyed.size());
}

TEST_F(InvertedIndexTest, ZoneMapPointLookupMatchesFullScan) {
  // A long list (many texts, several windows each) with a small zone step.
  const uint32_t kZoneStep = 8;
  auto writer = InvertedIndexWriter::Create(path_, 0, kZoneStep, 16);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->BeginList(5).ok());
  std::vector<PostedWindow> all;
  Rng rng(9);
  for (TextId text = 0; text < 200; ++text) {
    const size_t copies = 1 + rng.Uniform(4);
    for (size_t i = 0; i < copies; ++i) {
      PostedWindow w{text, static_cast<uint32_t>(i), static_cast<uint32_t>(i),
                     static_cast<uint32_t>(i + 3)};
      all.push_back(w);
    }
  }
  ASSERT_TRUE(writer->AddWindows(all.data(), all.size()).ok());
  ASSERT_TRUE(writer->Finish().ok());

  auto reader = InvertedIndexReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  const ListMeta* meta = reader->FindList(5);
  ASSERT_NE(meta, nullptr);
  ASSERT_GT(meta->zone_count, 1u) << "list should have a zone map";

  for (TextId text : {0u, 1u, 57u, 123u, 199u}) {
    std::vector<PostedWindow> expected;
    for (const PostedWindow& w : all) {
      if (w.text == text) expected.push_back(w);
    }
    std::vector<PostedWindow> got;
    ASSERT_TRUE(reader->ReadWindowsForText(*meta, text, &got).ok());
    EXPECT_EQ(got, expected) << "text " << text;
  }
  // A text that is not in the list.
  std::vector<PostedWindow> got;
  ASSERT_TRUE(reader->ReadWindowsForText(*meta, 5000, &got).ok());
  EXPECT_TRUE(got.empty());
}

TEST_F(InvertedIndexTest, ZoneLookupReadsLessThanFullList) {
  const uint32_t kZoneStep = 16;
  auto writer = InvertedIndexWriter::Create(path_, 0, kZoneStep, 16);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->BeginList(1).ok());
  for (TextId text = 0; text < 10000; ++text) {
    PostedWindow w{text, 0, 0, 3};
    ASSERT_TRUE(writer->AddWindow(w).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());

  auto reader = InvertedIndexReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  const ListMeta* meta = reader->FindList(1);
  ASSERT_NE(meta, nullptr);
  const uint64_t before = reader->bytes_read();
  std::vector<PostedWindow> got;
  ASSERT_TRUE(reader->ReadWindowsForText(*meta, 7777, &got).ok());
  ASSERT_EQ(got.size(), 1u);
  const uint64_t lookup_bytes = reader->bytes_read() - before;
  // Full list is 160 KB; the zone-assisted lookup should read a tiny slice
  // (zone entries + a couple of segments).
  EXPECT_LT(lookup_bytes, meta->count * sizeof(PostedWindow) / 10);
}

TEST_F(InvertedIndexTest, ShortListHasNoZones) {
  auto writer = InvertedIndexWriter::Create(path_, 0, 64, 256);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->BeginList(9).ok());
  for (TextId text = 0; text < 10; ++text) {
    PostedWindow w{text, 0, 0, 1};
    ASSERT_TRUE(writer->AddWindow(w).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());
  auto reader = InvertedIndexReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  const ListMeta* meta = reader->FindList(9);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->zone_count, 0u);
  std::vector<PostedWindow> got;
  ASSERT_TRUE(reader->ReadWindowsForText(*meta, 4, &got).ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].text, 4u);
}

TEST_F(InvertedIndexTest, CorruptFileRejected) {
  ASSERT_TRUE(WriteStringToFile(path_, std::string(100, 'z')).ok());
  EXPECT_FALSE(InvertedIndexReader::Open(path_).ok());
}

}  // namespace
}  // namespace ndss
