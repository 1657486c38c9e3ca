// Tests of the pluggable sketching subsystem: golden vectors that pin both
// schemes' hash values and index bytes (the on-disk format contract), the
// min-hash sketch and Jaccard properties under both schemes, the C-MinHash
// circulant derivation, the IndexMeta v3 format field, the end-to-end
// correctness of C-MinHash indexes against the brute-force ground truth,
// and the papers' estimator-quality claim (C-MinHash MSE no worse than
// k-independent) checked statistically over ~1k sequence pairs.

#include "sketch/sketch_scheme.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <set>
#include <tuple>
#include <vector>

#include "baseline/brute_force.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/file_io.h"
#include "common/random.h"
#include "corpusgen/synthetic.h"
#include "index/index_builder.h"
#include "index/index_meta.h"
#include "index/inverted_index_reader.h"
#include "query/searcher.h"
#include "sketch/sketch_golden.h"
#include "text/corpus_file.h"
#include "window/window_generator.h"

namespace ndss {
namespace {

class SketchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ndss_sketch_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

std::vector<Token> RandomTokens(size_t n, uint32_t vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<Token> tokens(n);
  for (size_t i = 0; i < n; ++i) {
    tokens[i] = static_cast<Token>(rng.Uniform(vocab));
  }
  return tokens;
}

/// crc32c of an inverted file's decoded lists: for each list in directory
/// order, key u32 and count u64, then each window's text, l, c, r as u32,
/// all little-endian. Depends only on what the file holds, not on how it
/// encodes it.
uint32_t DecodedListsCrc(const std::string& path) {
  auto reader = InvertedIndexReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  if (!reader.ok()) return 0;
  std::string stream;
  std::vector<PostedWindow> windows;
  for (const ListMeta& meta : reader->directory()) {
    PutFixed32(&stream, meta.key);
    PutFixed64(&stream, meta.count);
    windows.clear();
    EXPECT_TRUE(reader->ReadList(meta, &windows).ok()) << path;
    for (const PostedWindow& w : windows) {
      PutFixed32(&stream, w.text);
      PutFixed32(&stream, w.l);
      PutFixed32(&stream, w.c);
      PutFixed32(&stream, w.r);
    }
  }
  return crc32c::Value(stream.data(), stream.size());
}

// ---------------------------------------------------------------------------
// Golden vectors: the format contract
// ---------------------------------------------------------------------------

TEST_F(SketchTest, GoldenHashValues) {
  EXPECT_EQ(sketch_golden::CheckGoldenVectors(), "");
}

TEST_F(SketchTest, GoldenIndexFiles) {
  // A tiny corpus from a fixed LCG (independent of Rng and the synthetic
  // generator, so only the index format can move these values); every
  // fourth text repeats a 30-token run of text 0 so lists share texts.
  Corpus corpus;
  uint64_t x = 12345;
  const auto next = [&x]() {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(x >> 33);
  };
  std::vector<Token> first;
  for (int i = 0; i < 12; ++i) {
    std::vector<Token> text(40 + next() % 60);
    for (Token& token : text) token = next() % 64;
    if (i == 0) first = text;
    if (i % 4 == 3) {
      std::copy(first.begin(), first.begin() + 30, text.begin() + 5);
    }
    corpus.AddText(text);
  }
  // crc32c of every file of the index, in kFiles order, and of each
  // inverted file's decoded lists (DecodedListsCrc): the decoded values pin
  // the logical content independently of the file format, so a format change
  // that re-pins the file CRCs must leave them untouched.
  static constexpr const char* kFiles[] = {
      "CURRENT",        "index.meta",     "inverted.0.ndx",
      "inverted.1.ndx", "inverted.2.ndx", "inverted.3.ndx"};
  static constexpr uint32_t kFuncs = 4;
  struct GoldenIndex {
    SketchSchemeId scheme;
    bool compressed;
    uint32_t crcs[std::size(kFiles)];
    uint32_t decoded_crcs[kFuncs];
  };
  static constexpr GoldenIndex kIndexes[] = {
      {SketchSchemeId::kIndependent, false,
       {0xd4ebd8a9u, 0x7485a17fu, 0xe63f624bu, 0x0c35f72du, 0x4e513aa6u,
        0xdb0f021cu},
       {0x9bff04a8u, 0x32207f54u, 0xac16c15au, 0x65b1573au}},
      {SketchSchemeId::kIndependent, true,
       {0xd4ebd8a9u, 0x7485a17fu, 0x9c53ff08u, 0xa5ce6c4cu, 0x8a286f1cu,
        0x84dd1422u},
       {0x9bff04a8u, 0x32207f54u, 0xac16c15au, 0x65b1573au}},
      {SketchSchemeId::kCMinHash, false,
       {0xd4ebd8a9u, 0x53e5b4c9u, 0x031213bfu, 0x4892bc68u, 0xcdc8fa86u,
        0x85c7d740u},
       {0xe2589728u, 0x47282a52u, 0xd6ae9e10u, 0x46b2c4f0u}},
      {SketchSchemeId::kCMinHash, true,
       {0xd4ebd8a9u, 0x53e5b4c9u, 0xa7f1f8c1u, 0x183c6b1fu, 0xefe7dce1u,
        0x1a67f87fu},
       {0xe2589728u, 0x47282a52u, 0xd6ae9e10u, 0x46b2c4f0u}},
  };
  for (const GoldenIndex& golden : kIndexes) {
    IndexBuildOptions options;
    options.k = kFuncs;
    options.seed = 99;
    options.t = 8;
    options.zone_step = 4;
    options.zone_threshold = 16;
    options.sketch = golden.scheme;
    options.posting_format = golden.compressed ? index_format::kFormatCompressed
                                               : index_format::kFormatRaw;
    const std::string dir = dir_ + "/" + SketchSchemeName(golden.scheme) +
                            (golden.compressed ? "_compressed" : "_raw");
    ASSERT_TRUE(BuildIndexInMemory(corpus, dir, options).ok());
    std::set<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      names.insert(entry.path().filename().string());
    }
    EXPECT_EQ(names, std::set<std::string>(std::begin(kFiles),
                                           std::end(kFiles)));
    for (size_t i = 0; i < std::size(kFiles); ++i) {
      auto data = ReadFileToString(dir + "/" + kFiles[i]);
      ASSERT_TRUE(data.ok()) << data.status().ToString();
      EXPECT_EQ(crc32c::Value(data->data(), data->size()), golden.crcs[i])
          << dir << "/" << kFiles[i];
    }
    for (uint32_t func = 0; func < kFuncs; ++func) {
      EXPECT_EQ(DecodedListsCrc(IndexMeta::InvertedIndexPath(dir, func)),
                golden.decoded_crcs[func])
          << dir << " function " << func;
    }
  }
}

// ---------------------------------------------------------------------------
// Scheme mechanics
// ---------------------------------------------------------------------------

TEST_F(SketchTest, HashDecomposesThroughBase) {
  for (SketchSchemeId id :
       {SketchSchemeId::kIndependent, SketchSchemeId::kCMinHash}) {
    const SketchScheme scheme(id, 70, 99);  // k > 64 exercises rotation wrap
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
      const Token token = static_cast<Token>(rng.Next());
      const uint64_t base = scheme.BaseHash(token);
      for (uint32_t f = 0; f < scheme.k(); ++f) {
        ASSERT_EQ(scheme.Hash(f, token), scheme.HashFromBase(f, base));
      }
    }
  }
}

TEST_F(SketchTest, RowFillsMatchScalarHashes) {
  const std::vector<Token> tokens = RandomTokens(500, 1 << 20, 11);
  for (SketchSchemeId id :
       {SketchSchemeId::kIndependent, SketchSchemeId::kCMinHash}) {
    const SketchScheme scheme(id, 67, 0xabcdef);
    std::vector<uint64_t> base(tokens.size());
    scheme.FillBaseRow(tokens.data(), tokens.size(), base.data());
    for (size_t i = 0; i < tokens.size(); ++i) {
      ASSERT_EQ(base[i], scheme.BaseHash(tokens[i]));
    }
    std::vector<uint64_t> direct(tokens.size());
    std::vector<uint64_t> derived(tokens.size());
    for (uint32_t f : {0u, 1u, 63u, 64u, 66u}) {
      scheme.FillHashRow(f, tokens.data(), tokens.size(), direct.data());
      scheme.FillHashRowFromBase(f, base.data(), tokens.size(),
                                 derived.data());
      ASSERT_EQ(direct, derived) << "func " << f;
      for (size_t i = 0; i < tokens.size(); ++i) {
        ASSERT_EQ(direct[i], scheme.Hash(f, tokens[i]));
      }
    }
  }
}

TEST_F(SketchTest, SchemesAreDeterministicAndDistinct) {
  // Same (scheme, k, seed), same functions. Another seed, or the other
  // scheme at the same seed, shares no value: 512 comparisons of 64-bit
  // values per pair, so any collision at all is ~0 w.h.p.
  for (SketchSchemeId id :
       {SketchSchemeId::kIndependent, SketchSchemeId::kCMinHash}) {
    const SketchScheme a(id, 8, 42), b(id, 8, 42), other_seed(id, 8, 43);
    int same_as_other_seed = 0;
    for (uint32_t f = 0; f < 8; ++f) {
      for (Token token = 0; token < 64; ++token) {
        ASSERT_EQ(a.Hash(f, token), b.Hash(f, token));
        if (a.Hash(f, token) == other_seed.Hash(f, token)) {
          ++same_as_other_seed;
        }
      }
    }
    EXPECT_EQ(same_as_other_seed, 0) << SketchSchemeName(id);
  }
  const SketchScheme indep(SketchSchemeId::kIndependent, 8, 42);
  const SketchScheme cmin(SketchSchemeId::kCMinHash, 8, 42);
  int same_across_schemes = 0;
  for (uint32_t f = 0; f < 8; ++f) {
    for (Token token = 0; token < 64; ++token) {
      if (indep.Hash(f, token) == cmin.Hash(f, token)) ++same_across_schemes;
    }
  }
  EXPECT_EQ(same_across_schemes, 0);
}

TEST_F(SketchTest, FunctionsAreDistinctPermutations) {
  // Distinct tokens never collide under one function (both schemes are
  // bijections), checked on a dense small vocabulary plus random ids; and
  // the k functions all hash a token apart.
  std::vector<Token> tokens = RandomTokens(300, 1u << 30, 5);
  for (Token token = 0; token < 100000; ++token) tokens.push_back(token);
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  for (SketchSchemeId id :
       {SketchSchemeId::kIndependent, SketchSchemeId::kCMinHash}) {
    const SketchScheme scheme(id, 70, 1);
    for (uint32_t f : {0u, 1u, 64u, 69u}) {
      std::vector<uint64_t> values(tokens.size());
      scheme.FillHashRow(f, tokens.data(), tokens.size(), values.data());
      std::sort(values.begin(), values.end());
      EXPECT_EQ(std::unique(values.begin(), values.end()), values.end())
          << SketchSchemeName(id) << " func " << f;
    }
    for (Token token : {Token{7}, Token{0}, Token{0xffffffff}}) {
      std::set<uint64_t> across;
      for (uint32_t f = 0; f < 70; ++f) across.insert(scheme.Hash(f, token));
      EXPECT_EQ(across.size(), 70u) << SketchSchemeName(id);
    }
  }
}

TEST_F(SketchTest, ParseAndNameRoundTrip) {
  for (SketchSchemeId id :
       {SketchSchemeId::kIndependent, SketchSchemeId::kCMinHash}) {
    auto parsed = ParseSketchSchemeName(SketchSchemeName(id));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, id);
  }
  auto bad = ParseSketchSchemeName("simhash");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_NE(bad.status().ToString().find("cminhash"), std::string::npos);
}

TEST_F(SketchTest, ValidateSchemeIdRejectsUnknown) {
  EXPECT_TRUE(ValidateSketchSchemeId(0, "ctx").ok());
  EXPECT_TRUE(ValidateSketchSchemeId(1, "ctx").ok());
  const Status bad = ValidateSketchSchemeId(7, "some/index.meta");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.IsCorruption());
  EXPECT_NE(bad.ToString().find("some/index.meta"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Hash, sketch and Jaccard properties, under both schemes
// ---------------------------------------------------------------------------

class SchemePropertyTest : public ::testing::TestWithParam<SketchSchemeId> {
};

TEST_P(SchemePropertyTest, SketchOfSingleToken) {
  const SketchScheme scheme(GetParam(), 16, 5);
  Token token = 9;
  MinHashSketch sketch = ComputeSketch(scheme, &token, 1);
  ASSERT_EQ(sketch.argmin_tokens.size(), 16u);
  for (uint32_t f = 0; f < 16; ++f) {
    EXPECT_EQ(sketch.argmin_tokens[f], 9u);
    EXPECT_EQ(sketch.min_hashes[f], scheme.Hash(f, 9));
  }
}

TEST_P(SchemePropertyTest, SketchIsOrderInvariant) {
  const SketchScheme scheme(GetParam(), 8, 11);
  std::vector<Token> a = {1, 2, 3, 4, 5};
  std::vector<Token> b = {5, 3, 1, 2, 4};
  MinHashSketch sa = ComputeSketch(scheme, a.data(), a.size());
  MinHashSketch sb = ComputeSketch(scheme, b.data(), b.size());
  EXPECT_EQ(sa.argmin_tokens, sb.argmin_tokens);
  EXPECT_EQ(sa.min_hashes, sb.min_hashes);
}

TEST_P(SchemePropertyTest, SketchIgnoresDuplicates) {
  const SketchScheme scheme(GetParam(), 8, 11);
  std::vector<Token> a = {1, 2, 3};
  std::vector<Token> b = {1, 1, 2, 2, 3, 3, 3};
  EXPECT_EQ(ComputeSketch(scheme, a.data(), a.size()).min_hashes,
            ComputeSketch(scheme, b.data(), b.size()).min_hashes);
}

TEST_P(SchemePropertyTest, IdenticalSequencesEstimateOne) {
  const SketchScheme scheme(GetParam(), 32, 3);
  std::vector<Token> a = {10, 20, 30, 40};
  MinHashSketch s1 = ComputeSketch(scheme, a.data(), a.size());
  MinHashSketch s2 = ComputeSketch(scheme, a.data(), a.size());
  EXPECT_DOUBLE_EQ(EstimateJaccard(s1, s2), 1.0);
}

TEST_P(SchemePropertyTest, DisjointSequencesEstimateNearZero) {
  const SketchScheme scheme(GetParam(), 64, 3);
  std::vector<Token> a, b;
  for (Token t = 0; t < 50; ++t) a.push_back(t);
  for (Token t = 1000; t < 1050; ++t) b.push_back(t);
  MinHashSketch sa = ComputeSketch(scheme, a.data(), a.size());
  MinHashSketch sb = ComputeSketch(scheme, b.data(), b.size());
  EXPECT_LT(EstimateJaccard(sa, sb), 0.1);
}

// Statistical property: the estimate is unbiased — for sets with true
// Jaccard J, the mean collision fraction over many hash functions
// approaches J (variance O(1/k), Section 3.2).
TEST_P(SchemePropertyTest, EstimateConvergesToTrueJaccard) {
  const SketchScheme scheme(GetParam(), 512, 77);
  // |A ∩ B| = 50, |A ∪ B| = 100 → J = 0.5.
  std::vector<Token> a, b;
  for (Token t = 0; t < 75; ++t) a.push_back(t);
  for (Token t = 25; t < 100; ++t) b.push_back(t);
  MinHashSketch sa = ComputeSketch(scheme, a.data(), a.size());
  MinHashSketch sb = ComputeSketch(scheme, b.data(), b.size());
  EXPECT_NEAR(EstimateJaccard(sa, sb), 0.5, 0.07);
}

// Property sweep: min-hash collision probability for random set pairs
// tracks their exact Jaccard across set sizes.
TEST_P(SchemePropertyTest, CollisionRateTracksJaccard) {
  for (size_t set_size : {8, 32, 128, 512}) {
    const SketchScheme scheme(GetParam(), 256, set_size * 7919 + 1);
    Rng rng(set_size);
    std::vector<Token> a, b;
    for (size_t i = 0; i < set_size; ++i) {
      a.push_back(static_cast<Token>(rng.Uniform(4 * set_size)));
      b.push_back(static_cast<Token>(rng.Uniform(4 * set_size)));
    }
    const double exact =
        ExactDistinctJaccard(a.data(), a.size(), b.data(), b.size());
    MinHashSketch sa = ComputeSketch(scheme, a.data(), a.size());
    MinHashSketch sb = ComputeSketch(scheme, b.data(), b.size());
    EXPECT_NEAR(EstimateJaccard(sa, sb), exact, 0.12) << "size " << set_size;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SchemePropertyTest,
    ::testing::Values(SketchSchemeId::kIndependent, SketchSchemeId::kCMinHash),
    [](const ::testing::TestParamInfo<SketchSchemeId>& info) {
      return std::string(SketchSchemeName(info.param));
    });

// Exact Jaccard is scheme-free: the ground truth both estimators target.
TEST(ExactJaccardTest, DistinctJaccardPaperExample) {
  // Section 3.1: (A,A,A,B,B) vs (A,B,B,B,C) — treated as (A1,A2,A3,B1,B2)
  // and (A1,B1,B2,B3,C1): distinct = 2/3, multiset = 3/7.
  std::vector<Token> a = {0, 0, 0, 1, 1};
  std::vector<Token> b = {0, 1, 1, 1, 2};
  EXPECT_DOUBLE_EQ(ExactDistinctJaccard(a.data(), a.size(), b.data(),
                                        b.size()),
                   2.0 / 3.0);
  EXPECT_DOUBLE_EQ(ExactMultisetJaccard(a.data(), a.size(), b.data(),
                                        b.size()),
                   3.0 / 7.0);
}

TEST(ExactJaccardTest, EdgeCases) {
  std::vector<Token> a = {1, 2};
  EXPECT_DOUBLE_EQ(ExactDistinctJaccard(a.data(), a.size(), a.data(),
                                        a.size()),
                   1.0);
  EXPECT_DOUBLE_EQ(ExactDistinctJaccard(a.data(), 0, a.data(), 0), 1.0);
  std::vector<Token> b = {3, 4};
  EXPECT_DOUBLE_EQ(ExactDistinctJaccard(a.data(), a.size(), b.data(),
                                        b.size()),
                   0.0);
}

// ---------------------------------------------------------------------------
// Window generation
// ---------------------------------------------------------------------------

TEST_F(SketchTest, GenerateFromBaseMatchesDirectGeneration) {
  const SketchScheme scheme(SketchSchemeId::kCMinHash, 6, 123);
  const std::vector<Token> text = RandomTokens(600, 80, 21);
  std::vector<uint64_t> base(text.size());
  scheme.FillBaseRow(text.data(), text.size(), base.data());
  WindowGenerator generator;
  for (uint32_t f = 0; f < 6; ++f) {
    std::vector<CompactWindow> direct, from_base;
    generator.Generate(scheme, f, text, 12, &direct);
    generator.GenerateFromBase(scheme, f, base, 12, &from_base);
    SortWindows(&direct);
    SortWindows(&from_base);
    ASSERT_FALSE(direct.empty());
    ASSERT_EQ(direct.size(), from_base.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      ASSERT_EQ(direct[i].l, from_base[i].l);
      ASSERT_EQ(direct[i].c, from_base[i].c);
      ASSERT_EQ(direct[i].r, from_base[i].r);
    }
  }
}

// ---------------------------------------------------------------------------
// IndexMeta v3
// ---------------------------------------------------------------------------

TEST_F(SketchTest, MetaV3RoundTripsSketchScheme) {
  ASSERT_TRUE(CreateDirectories(dir_).ok());
  IndexMeta meta;
  meta.k = 9;
  meta.seed = 1234;
  meta.t = 17;
  meta.num_texts = 5;
  meta.total_tokens = 500;
  meta.sketch = SketchSchemeId::kCMinHash;
  ASSERT_TRUE(meta.Save(dir_).ok());
  auto loaded = IndexMeta::Load(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->sketch, SketchSchemeId::kCMinHash);
  EXPECT_EQ(loaded->k, 9u);
  EXPECT_EQ(loaded->seed, 1234u);
  EXPECT_EQ(loaded->t, 17u);
  EXPECT_TRUE(SameSketchFamily(meta, *loaded));
}

/// Serializes a v2 meta exactly as the pre-v3 code did.
std::string EncodeV2Meta(uint32_t k, uint64_t seed, uint32_t t) {
  std::string data;
  PutFixed64(&data, 0x324154454d58444eULL);  // "NDXMETA2"
  PutFixed32(&data, k);
  PutFixed64(&data, seed);
  PutFixed32(&data, t);
  PutFixed64(&data, 3);    // num_texts
  PutFixed64(&data, 333);  // total_tokens
  PutFixed32(&data, 64);   // zone_step
  PutFixed32(&data, 256);  // zone_threshold
  PutFixed32(&data, crc32c::Mask(crc32c::Value(data.data(), data.size())));
  return data;
}

TEST_F(SketchTest, MetaV2LoadsAsKIndependent) {
  ASSERT_TRUE(CreateDirectories(dir_).ok());
  ASSERT_TRUE(
      WriteStringToFile(dir_ + "/index.meta", EncodeV2Meta(7, 99, 13)).ok());
  auto loaded = IndexMeta::Load(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->sketch, SketchSchemeId::kIndependent);
  EXPECT_EQ(loaded->k, 7u);
  EXPECT_EQ(loaded->seed, 99u);
  EXPECT_EQ(loaded->t, 13u);
  EXPECT_EQ(loaded->num_texts, 3u);
}

TEST_F(SketchTest, MetaWithUnknownSchemeIdIsLoudCorruption) {
  ASSERT_TRUE(CreateDirectories(dir_).ok());
  // A well-formed v3 meta (valid magic and checksum) carrying scheme id 9:
  // the loader must reject it loudly, not misread it as some valid scheme.
  std::string data;
  PutFixed64(&data, 0x334154454d58444eULL);  // "NDXMETA3"
  PutFixed32(&data, 4);                      // k
  PutFixed64(&data, 1);                      // seed
  PutFixed32(&data, 10);                     // t
  PutFixed64(&data, 0);                      // num_texts
  PutFixed64(&data, 0);                      // total_tokens
  PutFixed32(&data, 64);                     // zone_step
  PutFixed32(&data, 256);                    // zone_threshold
  PutFixed32(&data, 9);                      // unknown sketch scheme
  PutFixed32(&data, crc32c::Mask(crc32c::Value(data.data(), data.size())));
  ASSERT_TRUE(WriteStringToFile(dir_ + "/index.meta", data).ok());
  auto loaded = IndexMeta::Load(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().ToString().find("sketch scheme"),
            std::string::npos);
}

TEST_F(SketchTest, SameSketchFamilyComparesAllFour) {
  IndexMeta a;
  a.sketch = SketchSchemeId::kCMinHash;
  IndexMeta b = a;
  EXPECT_TRUE(SameSketchFamily(a, b));
  b.sketch = SketchSchemeId::kIndependent;
  EXPECT_FALSE(SameSketchFamily(a, b));
  b = a;
  b.k += 1;
  EXPECT_FALSE(SameSketchFamily(a, b));
  b = a;
  b.seed += 1;
  EXPECT_FALSE(SameSketchFamily(a, b));
  b = a;
  b.t += 1;
  EXPECT_FALSE(SameSketchFamily(a, b));
  b = a;
  b.num_texts += 1;  // corpus size is not part of the family
  EXPECT_TRUE(SameSketchFamily(a, b));
}

// ---------------------------------------------------------------------------
// End-to-end: C-MinHash indexes answer correctly and consistently
// ---------------------------------------------------------------------------

using SequenceKey = std::tuple<TextId, uint32_t, uint32_t>;

std::set<SequenceKey> ExpandRectangles(
    const std::vector<TextMatchRectangle>& rectangles, uint32_t t) {
  std::set<SequenceKey> sequences;
  for (const TextMatchRectangle& tr : rectangles) {
    for (uint32_t i = tr.rect.x_begin; i <= tr.rect.x_end; ++i) {
      for (uint32_t j = tr.rect.y_begin; j <= tr.rect.y_end; ++j) {
        if (j >= i && j - i + 1 >= t) sequences.insert({tr.text, i, j});
      }
    }
  }
  return sequences;
}

std::set<SequenceKey> BaselineSequences(
    const std::vector<BaselineMatch>& matches) {
  std::set<SequenceKey> sequences;
  for (const BaselineMatch& m : matches) {
    sequences.insert({m.text, m.begin, m.end});
  }
  return sequences;
}

TEST_F(SketchTest, CMinHashSearchMatchesBruteForce) {
  SyntheticCorpusOptions corpus_options;
  corpus_options.num_texts = 50;
  corpus_options.min_text_length = 40;
  corpus_options.max_text_length = 120;
  corpus_options.vocab_size = 200;
  corpus_options.plant_rate = 0.4;
  corpus_options.min_plant_length = 25;
  corpus_options.max_plant_length = 50;
  corpus_options.plant_noise = 0.1;
  corpus_options.seed = 31;
  SyntheticCorpus sc = GenerateSyntheticCorpus(corpus_options);

  IndexBuildOptions build;
  build.k = 6;
  build.t = 15;
  build.sketch = SketchSchemeId::kCMinHash;
  build.zone_step = 8;
  build.zone_threshold = 32;
  ASSERT_TRUE(BuildIndexInMemory(sc.corpus, dir_, build).ok());
  auto searcher = Searcher::Open(dir_);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  ASSERT_EQ(searcher->meta().sketch, SketchSchemeId::kCMinHash);
  const SketchScheme scheme(build.sketch, build.k, build.seed);

  Rng rng(7);
  for (int q = 0; q < 5; ++q) {
    const TextId source = static_cast<TextId>(rng.Uniform(50));
    const auto text = sc.corpus.text(source);
    const uint32_t length = 20 + static_cast<uint32_t>(rng.Uniform(
                                     std::min<size_t>(40, text.size() - 20)));
    const uint32_t begin =
        static_cast<uint32_t>(rng.Uniform(text.size() - length + 1));
    const std::vector<Token> query = PerturbSequence(
        text, begin, length, 0.15, corpus_options.vocab_size, rng);

    for (double theta : {0.5, 0.7, 1.0}) {
      SearchOptions options;
      options.theta = theta;
      options.use_prefix_filter = false;
      auto result = searcher->Search(query, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const std::set<SequenceKey> got =
          ExpandRectangles(result->rectangles, build.t);
      const std::set<SequenceKey> expected = BaselineSequences(
          BruteForceApproxSearch(sc.corpus, scheme, query, theta, build.t));
      ASSERT_EQ(got, expected) << "query " << q << " theta " << theta;
    }
  }
}

/// Reads every window of every list of the index at `dir` as KeyedWindows
/// (text ids offset by func so all k functions land in one comparable set).
std::vector<KeyedWindow> DumpIndex(const std::string& dir, uint32_t k) {
  std::vector<KeyedWindow> all;
  for (uint32_t func = 0; func < k; ++func) {
    auto reader =
        InvertedIndexReader::Open(IndexMeta::InvertedIndexPath(dir, func));
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    for (const ListMeta& meta : reader->directory()) {
      std::vector<PostedWindow> windows;
      EXPECT_TRUE(reader->ReadList(meta, &windows).ok());
      for (const PostedWindow& w : windows) {
        all.push_back(
            KeyedWindow{meta.key, w.text + func * 1000000u, w.l, w.c, w.r});
      }
    }
  }
  std::sort(all.begin(), all.end(), KeyedWindowLess);
  return all;
}

TEST_F(SketchTest, CMinHashExternalBuildBitIdenticalToInMemory) {
  SyntheticCorpusOptions corpus_options;
  corpus_options.num_texts = 80;
  corpus_options.min_text_length = 60;
  corpus_options.max_text_length = 200;
  corpus_options.vocab_size = 300;
  corpus_options.plant_rate = 0.3;
  corpus_options.seed = 5;
  Corpus corpus = GenerateSyntheticCorpus(corpus_options).corpus;
  ASSERT_TRUE(CreateDirectories(dir_).ok());
  const std::string corpus_path = dir_ + "/corpus.crp";
  ASSERT_TRUE(WriteCorpusFile(corpus_path, corpus).ok());

  IndexBuildOptions options;
  options.k = 4;
  options.t = 20;
  options.sketch = SketchSchemeId::kCMinHash;
  const std::string mem_dir = dir_ + "/mem";
  ASSERT_TRUE(BuildIndexInMemory(corpus, mem_dir, options).ok());

  IndexBuildOptions external = options;
  external.batch_tokens = 2000;  // force many batches
  external.num_partitions = 4;
  const std::string ext_dir = dir_ + "/ext";
  ASSERT_TRUE(BuildIndexExternal(corpus_path, ext_dir, external).ok());

  EXPECT_EQ(DumpIndex(mem_dir, options.k), DumpIndex(ext_dir, options.k));
  auto mem_meta = IndexMeta::Load(mem_dir);
  auto ext_meta = IndexMeta::Load(ext_dir);
  ASSERT_TRUE(mem_meta.ok());
  ASSERT_TRUE(ext_meta.ok());
  EXPECT_EQ(mem_meta->sketch, SketchSchemeId::kCMinHash);
  EXPECT_TRUE(SameSketchFamily(*mem_meta, *ext_meta));

  // Parallel in-memory build (base rows shared across threads) is also
  // bit-identical.
  IndexBuildOptions parallel = options;
  parallel.num_threads = 4;
  const std::string par_dir = dir_ + "/par";
  ASSERT_TRUE(BuildIndexInMemory(corpus, par_dir, parallel).ok());
  EXPECT_EQ(DumpIndex(mem_dir, options.k), DumpIndex(par_dir, options.k));
}

TEST_F(SketchTest, CMinHashDiskAndMemorySearchersAgree) {
  SyntheticCorpusOptions corpus_options;
  corpus_options.num_texts = 40;
  corpus_options.vocab_size = 150;
  corpus_options.plant_rate = 0.4;
  corpus_options.seed = 13;
  SyntheticCorpus sc = GenerateSyntheticCorpus(corpus_options);

  IndexBuildOptions build;
  build.k = 8;
  build.t = 15;
  build.sketch = SketchSchemeId::kCMinHash;
  ASSERT_TRUE(BuildIndexInMemory(sc.corpus, dir_, build).ok());
  auto disk = Searcher::Open(dir_);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  auto memory = Searcher::InMemory(sc.corpus, build);
  ASSERT_TRUE(memory.ok()) << memory.status().ToString();

  Rng rng(17);
  for (int q = 0; q < 6; ++q) {
    const TextId source = static_cast<TextId>(rng.Uniform(40));
    const auto text = sc.corpus.text(source);
    const uint32_t length =
        std::min<uint32_t>(30, static_cast<uint32_t>(text.size()));
    const uint32_t begin =
        static_cast<uint32_t>(rng.Uniform(text.size() - length + 1));
    const std::vector<Token> query(text.begin() + begin,
                                   text.begin() + begin + length);
    SearchOptions options;
    options.theta = 0.7;
    auto from_disk = disk->Search(query, options);
    auto from_memory = memory->Search(query, options);
    ASSERT_TRUE(from_disk.ok());
    ASSERT_TRUE(from_memory.ok());
    EXPECT_EQ(ExpandRectangles(from_disk->rectangles, build.t),
              ExpandRectangles(from_memory->rectangles, build.t))
        << "query " << q;
  }
}

// ---------------------------------------------------------------------------
// Estimator quality: the papers' variance claim
// ---------------------------------------------------------------------------

TEST_F(SketchTest, CMinHashMseNoWorseThanKIndependent) {
  // ~1k random sequence pairs at k=16: squared error of the sketch estimate
  // against the exact distinct Jaccard, averaged per scheme. The C-MinHash
  // papers prove the circulant estimator's variance is no larger than
  // k-independent MinHash's (strictly smaller for most similarities); with
  // a fixed seed this test is deterministic, and the 10% tolerance absorbs
  // the sampling noise of the finite pair set without masking a real
  // regression (an implementation bug — e.g. correlated functions — shows
  // up as a multiplicative MSE blowup, not a few percent).
  constexpr uint32_t kK = 16;
  constexpr int kPairs = 1000;
  const SketchScheme indep(SketchSchemeId::kIndependent, kK, 0xfeed);
  const SketchScheme cmin(SketchSchemeId::kCMinHash, kK, 0xfeed);

  Rng rng(2024);
  double se_indep = 0, se_cmin = 0;
  std::vector<uint64_t> scratch;
  for (int p = 0; p < kPairs; ++p) {
    // Overlapping draws from a shared pool give a spread of true Jaccards.
    const uint32_t vocab = 30 + static_cast<uint32_t>(rng.Uniform(300));
    const size_t na = 30 + rng.Uniform(100);
    const size_t nb = 30 + rng.Uniform(100);
    std::vector<Token> a(na), b(nb);
    for (size_t i = 0; i < na; ++i) {
      a[i] = static_cast<Token>(rng.Uniform(vocab));
    }
    // b shares a prefix of a (perturbed), rest fresh: correlated pairs.
    const size_t shared = rng.Uniform(std::min(na, nb));
    for (size_t i = 0; i < nb; ++i) {
      b[i] = i < shared ? a[i] : static_cast<Token>(rng.Uniform(vocab));
    }
    const double truth = ExactDistinctJaccard(a.data(), na, b.data(), nb);
    const double est_indep =
        EstimateJaccard(ComputeSketch(indep, a.data(), na, &scratch),
                        ComputeSketch(indep, b.data(), nb, &scratch));
    const double est_cmin =
        EstimateJaccard(ComputeSketch(cmin, a.data(), na, &scratch),
                        ComputeSketch(cmin, b.data(), nb, &scratch));
    se_indep += (est_indep - truth) * (est_indep - truth);
    se_cmin += (est_cmin - truth) * (est_cmin - truth);
  }
  const double mse_indep = se_indep / kPairs;
  const double mse_cmin = se_cmin / kPairs;
  // Sanity: both estimators actually work at k=16.
  EXPECT_LT(mse_indep, 0.05);
  EXPECT_LT(mse_cmin, 0.05);
  EXPECT_LE(mse_cmin, mse_indep * 1.10)
      << "C-MinHash MSE " << mse_cmin << " vs k-independent " << mse_indep;
}

}  // namespace
}  // namespace ndss
