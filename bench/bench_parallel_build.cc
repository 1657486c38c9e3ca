// Parallel index construction (Section 3.4): the k min-hash functions are
// independent, so min(threads, k) workers each generate, order and write
// whole functions' inverted files. Window order comes from per-text (l, r)
// ordering plus one stable radix pass by key, never a comparison sort.
// The phase columns are thread-seconds summed over workers; total is wall
// time. Exits 1 unless every file of every build has the same CRC32C as
// the single-threaded build of the same k.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/crc32c.h"
#include "common/file_io.h"
#include "index/index_builder.h"

namespace {

/// CRC32C of index.meta and of every inverted file, in function order.
std::vector<uint32_t> IndexFileCrcs(const std::string& dir, uint32_t k) {
  std::vector<std::string> paths = {dir + "/index.meta"};
  for (uint32_t func = 0; func < k; ++func) {
    paths.push_back(ndss::IndexMeta::InvertedIndexPath(dir, func));
  }
  std::vector<uint32_t> crcs;
  for (const std::string& path : paths) {
    auto bytes = ndss::ReadFileToString(path);
    if (!bytes.ok()) {
      std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                   bytes.status().ToString().c_str());
      return {};
    }
    crcs.push_back(ndss::crc32c::Value(bytes->data(), bytes->size()));
  }
  return crcs;
}

}  // namespace

int main() {
  using namespace ndss;
  const uint32_t base_texts = bench::Scaled(2000);
  SyntheticCorpus sc = bench::MakeBenchCorpus(base_texts, 32000, 1);

  bench::PrintHeader(
      "Parallel build scaling (k = 8 and 32, t = 25)",
      "function-parallel workers, sort-free window order; phase columns are "
      "thread-seconds, total is wall; identical index bytes (CRC32C per "
      "file) regardless of thread count");
  std::printf("corpus: %zu texts, %llu tokens\n", sc.corpus.num_texts(),
              static_cast<unsigned long long>(sc.corpus.total_tokens()));
  std::printf("%4s %8s %12s %12s %12s %12s\n", "k", "threads", "gen s",
              "sort s", "io s", "total s");

  for (uint32_t k : {8u, 32u}) {
    std::vector<uint32_t> reference_crcs;
    for (size_t threads : {1u, 2u, 4u}) {
      IndexBuildOptions options;
      options.k = k;
      options.t = 25;
      options.num_threads = threads;
      const std::string dir = bench::ScratchDir(
          "parallel_k" + std::to_string(k) + "_t" + std::to_string(threads));
      auto stats = BuildIndexInMemory(sc.corpus, dir, options);
      if (!stats.ok()) {
        std::fprintf(stderr, "build failed: %s\n",
                     stats.status().ToString().c_str());
        return 1;
      }
      const std::vector<uint32_t> crcs = IndexFileCrcs(dir, k);
      if (crcs.empty()) return 1;
      if (reference_crcs.empty()) reference_crcs = crcs;
      if (crcs != reference_crcs) {
        std::fprintf(stderr,
                     "index bytes diverged at k=%u, %zu threads!\n", k,
                     threads);
        return 1;
      }
      std::printf("%4u %8zu %12.3f %12.3f %12.3f %12.3f\n", k, threads,
                  stats->generate_seconds, stats->sort_seconds,
                  stats->io_seconds, stats->total_seconds);
    }
  }
  std::printf("(identical index bytes across thread counts)\n");
  return 0;
}
