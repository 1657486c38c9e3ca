#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/file_io.h"
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
  ASSERT_GT(reader->zone_count(*meta), 1u) << "list should have a zone map";

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
  EXPECT_FALSE(reader->zoned(*meta));
  std::vector<PostedWindow> got;
  ASSERT_TRUE(reader->ReadWindowsForText(*meta, 4, &got).ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].text, 4u);
}

/// Every single-byte corruption of a small v3 file's metadata (header, zone
/// maps, directory, zone CRC table, footer), for three flip masks: the open
/// must fail with Corruption (InvalidArgument only when the header magic
/// turns into the v1 or v2 magic), or every list and zone probe must return
/// the clean file's windows or Corruption — never a crash, never wrong
/// windows. Flips of everything but the zone maps and the footer's
/// unchecksummed pad must fail the open; a zone map flip must fail that
/// list's probes. (Posting-region flips are covered by the list CRC tests
/// in failure_injection_test.)
TEST_F(InvertedIndexTest, ByteFlipSweepNeverReturnsWrongWindows) {
  namespace idx = index_format;
  for (idx::PostingFormat format : {idx::kFormatRaw, idx::kFormatCompressed}) {
    SCOPED_TRACE(format == idx::kFormatRaw ? "raw" : "compressed");
    // Lists written out of key order, as the external builder's partitions
    // are: two zoned (zone_threshold 12, zone_step 4), one empty, one with
    // a key near 2^32.
    struct List {
      Token key;
      std::vector<PostedWindow> windows;
    };
    std::vector<List> lists = {{900, {}}, {3, {}}, {41, {}}, {17, {}},
                               {0xfffffff0u, {}}};
    for (uint32_t i = 0; i < 14; ++i) {
      lists[0].windows.push_back({i / 2, i, i + 1, i + 3});
    }
    lists[1].windows = {{5, 0, 0, 2}, {6, 1, 3, 4}};
    for (uint32_t i = 0; i < 25; ++i) {
      lists[3].windows.push_back({i / 3, 2 * i, 2 * i + 1, 2 * i + 300});
    }
    lists[4].windows = {{70000, 9, 9, 9}};
    {
      auto writer = InvertedIndexWriter::Create(path_, 1, 4, 12, format);
      ASSERT_TRUE(writer.ok());
      for (const List& list : lists) {
        ASSERT_TRUE(writer->BeginList(list.key).ok());
        ASSERT_TRUE(
            writer->AddWindows(list.windows.data(), list.windows.size()).ok());
      }
      ASSERT_TRUE(writer->Finish().ok());
    }
    auto clean_data = ReadFileToString(path_);
    ASSERT_TRUE(clean_data.ok());
    const std::string clean = *clean_data;
    auto clean_reader = InvertedIndexReader::Open(path_);
    ASSERT_TRUE(clean_reader.ok()) << clean_reader.status().ToString();
    const std::vector<ListMeta> clean_directory = clean_reader->directory();
    ASSERT_EQ(clean_directory.size(), lists.size());
    EXPECT_EQ(clean_reader->zone_count(*clean_reader->FindList(900)), 4u);
    EXPECT_EQ(clean_reader->zone_count(*clean_reader->FindList(17)), 7u);
    EXPECT_FALSE(clean_reader->zoned(*clean_reader->FindList(41)));
    const uint64_t zones_begin =
        idx::kHeaderSize + clean_reader->posting_bytes();
    const uint64_t zones_end = zones_begin + clean_reader->zone_bytes();
    const uint64_t footer_begin = clean.size() - idx::kFooterSize;
    const std::vector<TextId> probe_texts = {0, 3, 6, 8, 100};

    const auto list_of = [&](Token key) -> const List& {
      for (const List& list : lists) {
        if (list.key == key) return list;
      }
      return lists[0];
    };
    for (uint64_t offset = 0; offset < clean.size(); ++offset) {
      if (offset == idx::kHeaderSize) offset = zones_begin;  // skip postings
      for (const uint8_t mask : {0x01, 0x80, 0xff}) {
        SCOPED_TRACE("offset " + std::to_string(offset) + " mask " +
                     std::to_string(mask));
        std::string data = clean;
        data[offset] = static_cast<char>(data[offset] ^ mask);
        ASSERT_TRUE(WriteStringToFile(path_, data).ok());
        auto reader = InvertedIndexReader::Open(path_);
        if (!reader.ok()) {
          const uint64_t magic = DecodeFixed64(data.data());
          if (magic == idx::kIndexMagicV1 || magic == idx::kIndexMagicV2) {
            EXPECT_TRUE(reader.status().IsInvalidArgument())
                << reader.status().ToString();
          } else {
            EXPECT_TRUE(reader.status().IsCorruption())
                << reader.status().ToString();
          }
          continue;
        }
        // Only the postings, zone maps and the footer's unchecksummed pad
        // may change without failing the open.
        const bool pad =
            offset >= footer_begin + 28 && offset < footer_begin + 32;
        ASSERT_TRUE((offset >= zones_begin && offset < zones_end) || pad)
            << "metadata flip undetected";
        ASSERT_EQ(reader->directory().size(), clean_directory.size());
        bool probe_failed = false;
        for (size_t i = 0; i < clean_directory.size(); ++i) {
          const ListMeta& meta = reader->directory()[i];
          const ListMeta& want = clean_directory[i];
          ASSERT_TRUE(meta.key == want.key && meta.count == want.count &&
                      meta.list_bytes == want.list_bytes &&
                      meta.list_offset == want.list_offset &&
                      meta.list_crc == want.list_crc);
          const List& list = list_of(meta.key);
          std::vector<PostedWindow> got;
          ASSERT_TRUE(reader->ReadList(meta, &got).ok());
          EXPECT_EQ(got, list.windows);
          for (TextId text : probe_texts) {
            std::vector<PostedWindow> probed, expected;
            for (const PostedWindow& w : list.windows) {
              if (w.text == text) expected.push_back(w);
            }
            const Status probe =
                reader->ReadWindowsForText(meta, text, &probed);
            if (probe.ok()) {
              EXPECT_EQ(probed, expected) << "text " << text;
            } else {
              EXPECT_TRUE(probe.IsCorruption()) << probe.ToString();
              probe_failed = probe_failed || reader->zoned(meta);
            }
          }
        }
        if (offset >= zones_begin && offset < zones_end) {
          EXPECT_TRUE(probe_failed) << "zone map flip undetected";
        }
      }
    }
  }
}

/// A file whose directory tiles the lists and zone maps differently from
/// their actual bytes is refused at open even when its checksum is
/// recomputed, so a directory can only describe the file it sits in.
TEST_F(InvertedIndexTest, DirectoryMustTileTheFile) {
  auto writer = InvertedIndexWriter::Create(path_, 0, 64, 256);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->BeginList(4).ok());
  ASSERT_TRUE(writer->AddWindow(PostedWindow{1, 0, 0, 1}).ok());
  ASSERT_TRUE(writer->Finish().ok());
  auto data = ReadFileToString(path_);
  ASSERT_TRUE(data.ok());
  // Raw directory entry: key delta 4 -> zigzag 8, count 1, crc; raise the
  // count to 2 and re-seal the footer checksum.
  const uint64_t footer = data->size() - index_format::kFooterSize;
  const uint64_t directory_offset = DecodeFixed64(data->data() + footer + 16);
  ASSERT_EQ((*data)[directory_offset], 8);
  ASSERT_EQ((*data)[directory_offset + 1], 1);
  (*data)[directory_offset + 1] = 2;
  uint32_t crc = crc32c::Value(data->data(), index_format::kHeaderSize);
  crc = crc32c::Extend(crc, data->data() + directory_offset,
                       footer - directory_offset);
  crc = crc32c::Extend(crc, data->data() + footer, 24);
  EncodeFixed32(data->data() + footer + 24, crc32c::Mask(crc));
  ASSERT_TRUE(WriteStringToFile(path_, *data).ok());
  auto reader = InvertedIndexReader::Open(path_);
  ASSERT_FALSE(reader.ok());
  EXPECT_TRUE(reader.status().IsCorruption()) << reader.status().ToString();
}

TEST_F(InvertedIndexTest, CorruptFileRejected) {
  ASSERT_TRUE(WriteStringToFile(path_, std::string(100, 'z')).ok());
  EXPECT_FALSE(InvertedIndexReader::Open(path_).ok());
}

}  // namespace
}  // namespace ndss
