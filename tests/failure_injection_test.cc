// Failure injection: truncated and bit-flipped index/corpus/model files
// must produce clean Status errors (Corruption / IOError), never crashes or
// silent wrong answers.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/coding.h"
#include "common/file_io.h"
#include "corpusgen/synthetic.h"
#include "index/index_builder.h"
#include "index/index_format.h"
#include "index/index_merger.h"
#include "index/inverted_index_reader.h"
#include "index/inverted_index_writer.h"
#include "query/searcher.h"
#include "text/corpus_file.h"
#include "tokenizer/bpe_model.h"

namespace ndss {
namespace {

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ndss_fail_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(CreateDirectories(dir_).ok());

    SyntheticCorpusOptions options;
    options.num_texts = 30;
    options.vocab_size = 200;
    options.seed = 50;
    sc_ = GenerateSyntheticCorpus(options);

    IndexBuildOptions build;
    build.k = 4;
    build.t = 15;
    ASSERT_TRUE(BuildIndexInMemory(sc_.corpus, dir_ + "/idx", build).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Truncates `path` to `size` bytes.
  static void Truncate(const std::string& path, uint64_t size) {
    std::filesystem::resize_file(path, size);
  }

  /// Flips one byte of `path` at `offset`.
  static void FlipByte(const std::string& path, uint64_t offset) {
    auto data = ReadFileToString(path);
    ASSERT_TRUE(data.ok());
    ASSERT_LT(offset, data->size());
    (*data)[offset] ^= 0x5a;
    ASSERT_TRUE(WriteStringToFile(path, *data).ok());
  }

  /// Overwrites one byte of `path` at `offset` with `value`.
  static void PatchByte(const std::string& path, uint64_t offset,
                        char value) {
    auto data = ReadFileToString(path);
    ASSERT_TRUE(data.ok());
    ASSERT_LT(offset, data->size());
    (*data)[offset] = value;
    ASSERT_TRUE(WriteStringToFile(path, *data).ok());
  }

  /// XORs every byte of the posting/zone region of an inverted-index file,
  /// leaving header, directory, and footer intact: the file still opens, but
  /// every list and zone read fails its CRC.
  static void CorruptAllLists(const std::string& path) {
    auto data = ReadFileToString(path);
    ASSERT_TRUE(data.ok());
    ASSERT_GT(data->size(), index_format::kHeaderSize +
                                index_format::kFooterSize);
    const uint64_t directory_offset =
        DecodeFixed64(data->data() + data->size() -
                      index_format::kFooterSize + 16);
    ASSERT_LE(directory_offset, data->size());
    for (uint64_t i = index_format::kHeaderSize; i < directory_offset; ++i) {
      (*data)[i] ^= 0x5a;
    }
    ASSERT_TRUE(WriteStringToFile(path, *data).ok());
  }

  /// Runs a fixed query set and flattens the spans, so two searchers can be
  /// compared for exact agreement.
  std::vector<std::string> RunQueries(Searcher& searcher, bool degraded) {
    SearchOptions options;
    options.theta = 0.5;
    options.allow_degraded = degraded;
    std::vector<std::string> fingerprints;
    for (TextId text = 0; text < 6; ++text) {
      const auto tokens = sc_.corpus.text(text);
      const std::vector<Token> query(tokens.begin(), tokens.begin() + 40);
      auto result = searcher.Search(query, options);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (!result.ok()) return fingerprints;
      std::string fp;
      for (const MatchSpan& span : result->spans) {
        fp += std::to_string(span.text) + ":" + std::to_string(span.begin) +
              "-" + std::to_string(span.end) + "/" +
              std::to_string(span.collisions) + ";";
      }
      fingerprints.push_back(std::move(fp));
    }
    return fingerprints;
  }

  std::string dir_;
  SyntheticCorpus sc_;
};

TEST_F(FailureInjectionTest, TruncatedIndexFileRejectedAtEveryLength) {
  const std::string path = IndexMeta::InvertedIndexPath(dir_ + "/idx", 0);
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  // A range of truncation points: header, mid-lists, mid-directory.
  for (uint64_t keep :
       {uint64_t{0}, uint64_t{10}, uint64_t{24}, *size / 2, *size - 8,
        *size - 1}) {
    const std::string copy = dir_ + "/trunc.ndx";
    std::filesystem::copy_file(
        path, copy, std::filesystem::copy_options::overwrite_existing);
    Truncate(copy, keep);
    auto reader = InvertedIndexReader::Open(copy);
    EXPECT_FALSE(reader.ok()) << "kept " << keep << " bytes";
  }
}

TEST_F(FailureInjectionTest, CorruptHeaderMagicRejected) {
  const std::string path = IndexMeta::InvertedIndexPath(dir_ + "/idx", 1);
  FlipByte(path, 3);
  EXPECT_FALSE(InvertedIndexReader::Open(path).ok());
}

TEST_F(FailureInjectionTest, CorruptFooterMagicRejected) {
  const std::string path = IndexMeta::InvertedIndexPath(dir_ + "/idx", 1);
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  FlipByte(path, *size - 2);
  EXPECT_FALSE(InvertedIndexReader::Open(path).ok());
}

TEST_F(FailureInjectionTest, MissingIndexFileFailsOpen) {
  ASSERT_TRUE(
      RemoveFile(IndexMeta::InvertedIndexPath(dir_ + "/idx", 2)).ok());
  EXPECT_FALSE(Searcher::Open(dir_ + "/idx").ok());
}

TEST_F(FailureInjectionTest, CorruptMetaRejected) {
  FlipByte(dir_ + "/idx/index.meta", 0);
  EXPECT_FALSE(Searcher::Open(dir_ + "/idx").ok());
}

TEST_F(FailureInjectionTest, TruncatedMetaRejected) {
  Truncate(dir_ + "/idx/index.meta", 10);
  EXPECT_FALSE(Searcher::Open(dir_ + "/idx").ok());
}

TEST_F(FailureInjectionTest, TruncatedCorpusRejected) {
  const std::string path = dir_ + "/corpus.crp";
  ASSERT_TRUE(WriteCorpusFile(path, sc_.corpus).ok());
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  for (uint64_t keep : {uint64_t{0}, uint64_t{7}, *size / 2, *size - 3}) {
    const std::string copy = dir_ + "/trunc.crp";
    std::filesystem::copy_file(
        path, copy, std::filesystem::copy_options::overwrite_existing);
    Truncate(copy, keep);
    auto reader = CorpusFileReader::Open(copy);
    if (reader.ok()) {
      // A truncation can preserve the footer region only if it removed
      // nothing relevant; reading all texts must then still fail or
      // succeed without crashing.
      auto all = reader->ReadAll();
      (void)all;
    }
  }
  SUCCEED();
}

TEST_F(FailureInjectionTest, CorruptBpeModelRejected) {
  const std::string path = dir_ + "/model.bpe";
  auto model = BpeModel::FromMerges({{'a', 'b'}, {256, 'c'}});
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Save(path).ok());
  FlipByte(path, 1);
  EXPECT_FALSE(BpeModel::Load(path).ok());
  // Truncated model file.
  ASSERT_TRUE(model->Save(path).ok());
  Truncate(path, 12);
  EXPECT_FALSE(BpeModel::Load(path).ok());
}

TEST_F(FailureInjectionTest, ExternalBuildOnTruncatedCorpusFailsCleanly) {
  const std::string path = dir_ + "/corpus.crp";
  ASSERT_TRUE(WriteCorpusFile(path, sc_.corpus).ok());
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  Truncate(path, *size / 2);
  IndexBuildOptions build;
  build.k = 3;
  build.t = 15;
  build.memory_budget_bytes = 1 << 16;  // force the spill path
  build.num_partitions = 4;
  build.batch_tokens = 1 << 12;
  EXPECT_FALSE(BuildIndexExternal(path, dir_ + "/xidx", build).ok());
  // The aborted build must not have published a searchable directory.
  EXPECT_FALSE(Searcher::Open(dir_ + "/xidx").ok());
}

TEST_F(FailureInjectionTest, ExternalBuildOnCorruptCorpusFailsCleanly) {
  const std::string path = dir_ + "/corpus.crp";
  ASSERT_TRUE(WriteCorpusFile(path, sc_.corpus).ok());
  FlipByte(path, 20);  // inside the first text's token payload
  IndexBuildOptions build;
  build.k = 3;
  build.t = 15;
  build.memory_budget_bytes = 1 << 16;
  build.num_partitions = 4;
  build.batch_tokens = 1 << 12;
  auto stats = BuildIndexExternal(path, dir_ + "/xidx", build);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsCorruption()) << stats.status().ToString();
}

TEST_F(FailureInjectionTest, MergerRejectsCorruptShardMeta) {
  // The SetUp index is shard 0; build a second shard over a different
  // corpus with identical (k, seed, t).
  SyntheticCorpusOptions options;
  options.num_texts = 20;
  options.vocab_size = 200;
  options.seed = 51;
  SyntheticCorpus other = GenerateSyntheticCorpus(options);
  IndexBuildOptions build;
  build.k = 4;
  build.t = 15;
  ASSERT_TRUE(
      BuildIndexInMemory(other.corpus, dir_ + "/shard1", build).ok());

  FlipByte(dir_ + "/shard1/index.meta", 12);
  auto merged = MergeIndexes({dir_ + "/idx", dir_ + "/shard1"},
                             dir_ + "/merged");
  ASSERT_FALSE(merged.ok());
  EXPECT_FALSE(Searcher::Open(dir_ + "/merged").ok());
}

TEST_F(FailureInjectionTest, MergerRejectsShardWithoutCommitMarker) {
  SyntheticCorpusOptions options;
  options.num_texts = 20;
  options.vocab_size = 200;
  options.seed = 52;
  SyntheticCorpus other = GenerateSyntheticCorpus(options);
  IndexBuildOptions build;
  build.k = 4;
  build.t = 15;
  ASSERT_TRUE(
      BuildIndexInMemory(other.corpus, dir_ + "/shard1", build).ok());

  // Simulate an interrupted shard build: data present, marker absent.
  ASSERT_TRUE(RemoveFile(dir_ + "/shard1/CURRENT").ok());
  auto merged = MergeIndexes({dir_ + "/idx", dir_ + "/shard1"},
                             dir_ + "/merged");
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().ToString().find("commit marker"),
            std::string::npos)
      << merged.status().ToString();
}

TEST_F(FailureInjectionTest, OrphanTempAndSpillFilesSweptBeforeBuild) {
  // Leftovers of a crashed out-of-core build: a truncated spill partition
  // and a half-written index temp file.
  const std::string idx = dir_ + "/idx2";
  ASSERT_TRUE(CreateDirectories(idx).ok());
  ASSERT_TRUE(WriteStringToFile(idx + "/spill.0007", "truncated junk").ok());
  ASSERT_TRUE(
      WriteStringToFile(idx + "/inverted.0.ndx.tmp", "half a file").ok());

  size_t removed = 0;
  ASSERT_TRUE(CleanupIndexOrphans(idx, &removed).ok());
  EXPECT_EQ(2u, removed);
  EXPECT_FALSE(FileExists(idx + "/spill.0007"));
  EXPECT_FALSE(FileExists(idx + "/inverted.0.ndx.tmp"));

  // A rebuild over the same directory (planting fresh orphans first) also
  // sweeps them and produces a healthy index.
  ASSERT_TRUE(WriteStringToFile(idx + "/spill.0001", "junk").ok());
  IndexBuildOptions build;
  build.k = 4;
  build.t = 15;
  ASSERT_TRUE(BuildIndexInMemory(sc_.corpus, idx, build).ok());
  EXPECT_FALSE(FileExists(idx + "/spill.0001"));
  EXPECT_TRUE(Searcher::Open(idx).ok());
}

TEST_F(FailureInjectionTest, V1IndexFileRejectedWithClearError) {
  // The v1, v2 and v3 magics differ only in the version character ('1',
  // '2', '3') at byte 7 of the little-endian header magic.
  const std::string path = IndexMeta::InvertedIndexPath(dir_ + "/idx", 0);
  PatchByte(path, 7, '1');
  auto reader = InvertedIndexReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_TRUE(reader.status().IsInvalidArgument())
      << reader.status().ToString();
  EXPECT_NE(reader.status().ToString().find("v1"), std::string::npos);
}

TEST_F(FailureInjectionTest, V2IndexFileRejectedWithClearError) {
  // A v2 file (fixed 48-byte directory entries) is refused with a rebuild
  // message rather than read as a corrupt v3 file.
  const std::string path = IndexMeta::InvertedIndexPath(dir_ + "/idx", 0);
  PatchByte(path, 7, '2');
  auto reader = InvertedIndexReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_TRUE(reader.status().IsInvalidArgument())
      << reader.status().ToString();
  EXPECT_NE(reader.status().ToString().find("v2"), std::string::npos);
  EXPECT_NE(reader.status().ToString().find("rebuild"), std::string::npos);
  // The searcher surfaces the same refusal.
  auto searcher = Searcher::Open(dir_ + "/idx");
  ASSERT_FALSE(searcher.ok());
  EXPECT_TRUE(searcher.status().IsInvalidArgument())
      << searcher.status().ToString();
}

TEST_F(FailureInjectionTest, V1CorpusFileRejectedWithClearError) {
  const std::string path = dir_ + "/corpus.crp";
  ASSERT_TRUE(WriteCorpusFile(path, sc_.corpus).ok());
  PatchByte(path, 7, '1');
  auto reader = CorpusFileReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_TRUE(reader.status().IsInvalidArgument())
      << reader.status().ToString();
}

TEST_F(FailureInjectionTest, V1IndexMetaRejectedWithClearError) {
  PatchByte(dir_ + "/idx/index.meta", 7, '1');
  auto meta = IndexMeta::Load(dir_ + "/idx");
  ASSERT_FALSE(meta.ok());
  EXPECT_TRUE(meta.status().IsInvalidArgument()) << meta.status().ToString();
}

TEST_F(FailureInjectionTest, DegradedOpenDropsMissingFileAndMatchesSmallerIndex) {
  // Chained min-hash seeds make functions 0..k'-1 of a k-function family
  // identical to a k'-function family, so an index degraded by losing its
  // LAST file must answer exactly like an index built with k-1 functions.
  IndexBuildOptions build;
  build.k = 3;
  build.t = 15;
  ASSERT_TRUE(BuildIndexInMemory(sc_.corpus, dir_ + "/idx3", build).ok());
  auto small = Searcher::Open(dir_ + "/idx3");
  ASSERT_TRUE(small.ok());
  const auto expected = RunQueries(*small, /*degraded=*/false);

  ASSERT_TRUE(
      RemoveFile(IndexMeta::InvertedIndexPath(dir_ + "/idx", 3)).ok());
  EXPECT_FALSE(Searcher::Open(dir_ + "/idx").ok());  // strict mode refuses

  SearcherOptions degraded;
  degraded.allow_degraded = true;
  auto searcher = Searcher::Open(dir_ + "/idx", degraded);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  EXPECT_EQ(1u, searcher->degraded_funcs());
  EXPECT_EQ(expected, RunQueries(*searcher, /*degraded=*/true));
}

TEST_F(FailureInjectionTest, DegradedSearchDropsCorruptListsAndMatchesSmallerIndex) {
  IndexBuildOptions build;
  build.k = 3;
  build.t = 15;
  ASSERT_TRUE(BuildIndexInMemory(sc_.corpus, dir_ + "/idx3", build).ok());
  auto small = Searcher::Open(dir_ + "/idx3");
  ASSERT_TRUE(small.ok());
  const auto expected = RunQueries(*small, /*degraded=*/false);

  // Corrupt every posting of the last file: the file still opens (its
  // directory checksum is intact), so the failure surfaces mid-query and
  // the searcher must drop the function on the fly and retry.
  CorruptAllLists(IndexMeta::InvertedIndexPath(dir_ + "/idx", 3));
  SearcherOptions degraded;
  degraded.allow_degraded = true;
  auto searcher = Searcher::Open(dir_ + "/idx", degraded);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  EXPECT_EQ(0u, searcher->degraded_funcs());  // nothing dropped yet

  EXPECT_EQ(expected, RunQueries(*searcher, /*degraded=*/true));
  EXPECT_EQ(1u, searcher->degraded_funcs());
}

TEST_F(FailureInjectionTest, CorruptIndexWithoutOptInFailsWithHint) {
  CorruptAllLists(IndexMeta::InvertedIndexPath(dir_ + "/idx", 3));
  SearcherOptions degraded;
  degraded.allow_degraded = true;
  auto searcher = Searcher::Open(dir_ + "/idx", degraded);
  ASSERT_TRUE(searcher.ok());

  // Degraded open, strict search: the first corrupt list read must fail the
  // query with Corruption, never silently degrade.
  const auto tokens = sc_.corpus.text(0);
  const std::vector<Token> query(tokens.begin(), tokens.begin() + 40);
  SearchOptions options;
  options.theta = 0.5;
  auto result = searcher->Search(query, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
}

/// Writes a raw-format index file with a single zoned list under key 7.
/// Each window's text is produced by `text_of(i)`; l/c/r are i+5/i+10/i+20.
/// Returns the absolute file offset of window `i` via list_offset + 16 * i.
template <typename TextOf>
void WriteSingleListFile(const std::string& path, int num_windows,
                         TextOf text_of) {
  auto writer = InvertedIndexWriter::Create(path, /*func=*/0, /*zone_step=*/4,
                                            /*zone_threshold=*/8,
                                            index_format::kFormatRaw);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer->BeginList(7).ok());
  for (int i = 0; i < num_windows; ++i) {
    PostedWindow w;
    w.text = text_of(i);
    w.l = static_cast<uint32_t>(i) + 5;
    w.c = static_cast<uint32_t>(i) + 10;
    w.r = static_cast<uint32_t>(i) + 20;
    ASSERT_TRUE(writer->AddWindow(w).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());
}

TEST_F(FailureInjectionTest, ZoneProbeDetectsOutOfOrderWindows) {
  // Raw zone probes used to trust the posting bytes blindly. A flipped text
  // id that breaks the (text, l) sort order must now surface as Corruption
  // from the probe itself, not just from a full-list read.
  const std::string path = dir_ + "/probe.ndx";
  WriteSingleListFile(path, 100,
                      [](int i) { return static_cast<TextId>(i); });
  {
    auto reader = InvertedIndexReader::Open(path);
    ASSERT_TRUE(reader.ok());
    const ListMeta* meta = reader->FindList(7);
    ASSERT_NE(meta, nullptr);
    ASSERT_TRUE(reader->zoned(*meta)) << "list must be zoned for this test";
    // Rewrite window 50's text id (4 bytes little-endian) to 0: texts now
    // run ... 48, 49, 0, 51 ... inside one zone segment.
    for (int b = 0; b < 4; ++b) {
      PatchByte(path, meta->list_offset + 50 * sizeof(PostedWindow) + b, 0);
    }
  }
  auto reader = InvertedIndexReader::Open(path);
  ASSERT_TRUE(reader.ok());  // directory/footer untouched
  const ListMeta* meta = reader->FindList(7);
  ASSERT_NE(meta, nullptr);
  std::vector<PostedWindow> out;
  auto probe = reader->ReadWindowsForText(*meta, /*text=*/50, &out);
  EXPECT_TRUE(probe.IsCorruption()) << probe.ToString();
  out.clear();
  EXPECT_TRUE(reader->ReadList(*meta, &out).IsCorruption());
}

TEST_F(FailureInjectionTest, ZoneProbeDetectsInvalidWindowBounds) {
  const std::string path = dir_ + "/probe.ndx";
  WriteSingleListFile(path, 100,
                      [](int i) { return static_cast<TextId>(i); });
  auto clean = InvertedIndexReader::Open(path);
  ASSERT_TRUE(clean.ok());
  const ListMeta* meta = clean->FindList(7);
  ASSERT_NE(meta, nullptr);
  ASSERT_TRUE(clean->zoned(*meta));
  // Set the high byte of window 50's l field: l becomes > c, which no
  // writer can produce (windows always satisfy l <= c <= r).
  PatchByte(path, meta->list_offset + 50 * sizeof(PostedWindow) + 7, 0x7f);
  auto reader = InvertedIndexReader::Open(path);
  ASSERT_TRUE(reader.ok());
  const ListMeta* reloaded = reader->FindList(7);
  ASSERT_NE(reloaded, nullptr);
  std::vector<PostedWindow> out;
  auto probe = reader->ReadWindowsForText(*reloaded, /*text=*/50, &out);
  EXPECT_TRUE(probe.IsCorruption()) << probe.ToString();
}

TEST_F(FailureInjectionTest, ZoneProbeFromListStartVerifiesFullCrc) {
  // All windows share one text, so a probe for it scans the entire list
  // from offset 0 and must verify the full-list CRC. The corruption below
  // keeps every per-window invariant intact (r only grows), so the CRC is
  // the only line of defense — exactly the check the old probe skipped.
  const std::string path = dir_ + "/probe.ndx";
  WriteSingleListFile(path, 100, [](int) { return TextId{7}; });
  auto clean = InvertedIndexReader::Open(path);
  ASSERT_TRUE(clean.ok());
  const ListMeta* meta = clean->FindList(7);
  ASSERT_NE(meta, nullptr);
  ASSERT_TRUE(clean->zoned(*meta));
  PatchByte(path, meta->list_offset + 80 * sizeof(PostedWindow) + 15, 0x01);
  auto reader = InvertedIndexReader::Open(path);
  ASSERT_TRUE(reader.ok());
  const ListMeta* reloaded = reader->FindList(7);
  ASSERT_NE(reloaded, nullptr);
  std::vector<PostedWindow> out;
  auto probe = reader->ReadWindowsForText(*reloaded, /*text=*/7, &out);
  EXPECT_TRUE(probe.IsCorruption()) << probe.ToString();
}

TEST_F(FailureInjectionTest, DegradedOpenDropsFuncIdMismatchAndMatchesSmallerIndex) {
  // An index file whose embedded function id disagrees with its file name
  // (e.g. files shuffled by a bad restore) answers queries with the WRONG
  // hash function. Strict open must refuse; degraded open must drop the
  // mismatched file and answer exactly like a k-1 index.
  IndexBuildOptions build;
  build.k = 3;
  build.t = 15;
  ASSERT_TRUE(BuildIndexInMemory(sc_.corpus, dir_ + "/idx3", build).ok());
  auto small = Searcher::Open(dir_ + "/idx3");
  ASSERT_TRUE(small.ok());
  const auto expected = RunQueries(*small, /*degraded=*/false);

  // Overwrite function 3's file with function 2's: checksums are all
  // valid, only the header's func id betrays the swap.
  std::filesystem::copy_file(
      IndexMeta::InvertedIndexPath(dir_ + "/idx", 2),
      IndexMeta::InvertedIndexPath(dir_ + "/idx", 3),
      std::filesystem::copy_options::overwrite_existing);

  auto strict = Searcher::Open(dir_ + "/idx");
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsCorruption()) << strict.status().ToString();

  SearcherOptions degraded;
  degraded.allow_degraded = true;
  auto searcher = Searcher::Open(dir_ + "/idx", degraded);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  EXPECT_EQ(1u, searcher->degraded_funcs());
  EXPECT_EQ(expected, RunQueries(*searcher, /*degraded=*/true));
}

TEST_F(FailureInjectionTest, SearchAfterListRegionCorruptionIsContained) {
  // Flip a byte inside the posting region; opening still succeeds (the
  // directory is intact) and searches must not crash — results may change
  // but every path returns a Status.
  const std::string path = IndexMeta::InvertedIndexPath(dir_ + "/idx", 0);
  FlipByte(path, 30);  // inside the first list
  auto searcher = Searcher::Open(dir_ + "/idx");
  if (!searcher.ok()) return;  // also acceptable
  const auto text = sc_.corpus.text(0);
  const std::vector<Token> query(text.begin(), text.begin() + 20);
  SearchOptions options;
  options.theta = 0.5;
  auto result = searcher->Search(query, options);
  (void)result;  // ok() either way; must simply not crash
  SUCCEED();
}

}  // namespace
}  // namespace ndss
