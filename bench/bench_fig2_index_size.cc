// Figure 2(e)-(h): inverted-index size vs length threshold t, number of
// hash functions k, and corpus size — plus the index-to-corpus size ratio
// the paper bounds by 16/t per function (4 integers per window,
// 2N/t windows). The paper counts 16 bytes per window and nothing per
// list; the tables also show what the list directory adds on top of the
// postings, in bytes and in bytes per window.

#include <cstdio>

#include "bench_util.h"
#include "index/index_builder.h"
#include "index/index_meta.h"
#include "index/inverted_index_reader.h"

namespace {

/// Posting and directory bytes summed over the k inverted files of `dir`.
struct IndexBytes {
  uint64_t posting = 0;
  uint64_t directory = 0;
  uint64_t lists = 0;
};

bool SumIndexBytes(const std::string& dir, uint32_t k, IndexBytes* out) {
  for (uint32_t func = 0; func < k; ++func) {
    auto reader = ndss::InvertedIndexReader::Open(
        ndss::IndexMeta::InvertedIndexPath(dir, func));
    if (!reader.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   reader.status().ToString().c_str());
      return false;
    }
    out->posting += reader->posting_bytes();
    out->directory += reader->directory_bytes();
    out->lists += reader->num_lists();
  }
  return true;
}

}  // namespace

int main() {
  using namespace ndss;
  const uint32_t base_texts = bench::Scaled(2000);
  SyntheticCorpus sc = bench::MakeBenchCorpus(base_texts, 32000, 1);
  const double corpus_bytes =
      static_cast<double>(sc.corpus.total_tokens()) * sizeof(Token);

  bench::PrintHeader(
      "Figure 2(e)-(f): index size vs t and k",
      "paper: size inversely proportional to t, linear in k; per-function "
      "ratio <= 16/t of the corpus, 16 B per window");
  std::printf("corpus: %zu texts, %.1f MB tokenized\n", sc.corpus.num_texts(),
              corpus_bytes / 1e6);
  std::printf("%6s %4s %12s %10s %8s %6s %8s %18s\n", "t", "k", "windows",
              "index MB", "dir MB", "dir %", "B/window", "per-func ratio");
  for (uint32_t t : {25u, 50u, 100u}) {
    for (uint32_t k : {1u, 4u, 16u}) {
      IndexBuildOptions options;
      options.k = k;
      options.t = t;
      const std::string dir = bench::ScratchDir("fig2_size");
      auto stats = BuildIndexInMemory(sc.corpus, dir, options);
      if (!stats.ok()) {
        std::fprintf(stderr, "build failed: %s\n",
                     stats.status().ToString().c_str());
        return 1;
      }
      IndexBytes bytes;
      if (!SumIndexBytes(dir, k, &bytes)) return 1;
      const double per_func_ratio =
          stats->index_bytes / corpus_bytes / k;
      std::printf("%6u %4u %12llu %10.2f %8.2f %6.1f %8.2f %8.4f (<= %.4f)\n",
                  t, k, static_cast<unsigned long long>(stats->num_windows),
                  stats->index_bytes / 1e6, bytes.directory / 1e6,
                  100.0 * bytes.directory / stats->index_bytes,
                  static_cast<double>(stats->index_bytes) /
                      static_cast<double>(stats->num_windows),
                  per_func_ratio, 16.0 / t);
    }
  }

  bench::PrintHeader(
      "Index bytes per window by posting format (k = 4)",
      "paper: 16 B per window (raw records) and nothing per list");
  std::printf("%6s %11s %12s %10s %12s %12s %12s\n", "t", "format",
              "windows", "lists", "postings B/w", "dir B/list",
              "total B/w");
  for (uint32_t t : {25u, 50u, 100u}) {
    for (index_format::PostingFormat format :
         {index_format::kFormatRaw, index_format::kFormatCompressed}) {
      IndexBuildOptions options;
      options.k = 4;
      options.t = t;
      options.posting_format = format;
      const std::string dir = bench::ScratchDir("fig2_size_format");
      auto stats = BuildIndexInMemory(sc.corpus, dir, options);
      IndexBytes bytes;
      if (!stats.ok() || !SumIndexBytes(dir, options.k, &bytes)) return 1;
      const double windows = static_cast<double>(stats->num_windows);
      std::printf("%6u %11s %12llu %10llu %12.2f %12.2f %12.2f\n", t,
                  format == index_format::kFormatRaw ? "raw" : "compressed",
                  static_cast<unsigned long long>(stats->num_windows),
                  static_cast<unsigned long long>(bytes.lists),
                  bytes.posting / windows,
                  static_cast<double>(bytes.directory) /
                      static_cast<double>(bytes.lists),
                  stats->index_bytes / windows);
    }
  }

  bench::PrintHeader("Figure 2(g)-(h): index size vs corpus size",
                     "paper: index size grows linearly with the corpus");
  std::printf("%10s %12s %12s %12s\n", "texts", "corpus MB", "windows",
              "index MB");
  for (uint32_t factor : {1u, 2u, 4u}) {
    SyntheticCorpus scaled =
        bench::MakeBenchCorpus(base_texts * factor / 2, 32000, 3);
    IndexBuildOptions options;
    options.k = 4;
    options.t = 50;
    const std::string dir = bench::ScratchDir("fig2_size_scale");
    auto stats = BuildIndexInMemory(scaled.corpus, dir, options);
    if (!stats.ok()) return 1;
    std::printf("%10zu %12.1f %12llu %12.2f\n", scaled.corpus.num_texts(),
                scaled.corpus.total_tokens() * 4.0 / 1e6,
                static_cast<unsigned long long>(stats->num_windows),
                stats->index_bytes / 1e6);
  }
  return 0;
}
