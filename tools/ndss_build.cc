// ndss_build: builds the k inverted-index files for a corpus file.
//
//   ndss_build --corpus=/data/corpus.crp --index=/data/idx --k=32 --t=25
//              [--external] [--compress] [--threads=N]

#include <cstdio>

#include "index/index_builder.h"
#include "text/corpus_file.h"
#include "tool_flags.h"

int main(int argc, char** argv) {
  ndss::tools::Flags flags(argc, argv);
  const std::string corpus_path = flags.GetString("corpus", "");
  const std::string index_dir = flags.GetString("index", "");
  if (corpus_path.empty() || index_dir.empty()) {
    ndss::tools::Die(
        "usage: ndss_build --corpus=FILE --index=DIR [--k=K] [--t=T] "
        "[--external] [--compress] [--threads=N] [--zone-step=S] "
        "[--batch-tokens=N] [--partitions=P] [--seed=S] "
        "[--sketch=kindependent|cminhash]");
  }
  ndss::IndexBuildOptions options;
  options.k = static_cast<uint32_t>(flags.GetInt("k", 32));
  {
    ndss::Result<ndss::SketchSchemeId> sketch = ndss::ParseSketchSchemeName(
        flags.GetString("sketch", "kindependent"));
    if (!sketch.ok()) ndss::tools::Die(sketch.status().ToString());
    options.sketch = *sketch;
  }
  options.t = static_cast<uint32_t>(flags.GetInt("t", 25));
  options.seed = static_cast<uint64_t>(
      flags.GetInt("seed", 0x5eed5eed5eed5eedLL));
  options.zone_step = static_cast<uint32_t>(flags.GetInt("zone-step", 64));
  options.num_threads = static_cast<size_t>(flags.GetInt("threads", 1));
  options.batch_tokens =
      static_cast<uint64_t>(flags.GetInt("batch-tokens", 16 << 20));
  options.num_partitions =
      static_cast<uint32_t>(flags.GetInt("partitions", 16));
  if (flags.GetBool("compress", false)) {
    options.posting_format = ndss::index_format::kFormatCompressed;
  }

  ndss::Result<ndss::IndexBuildStats> stats = [&] {
    if (flags.GetBool("external", false)) {
      return ndss::BuildIndexExternal(corpus_path, index_dir, options);
    }
    auto corpus = ndss::ReadCorpusFile(corpus_path);
    if (!corpus.ok()) {
      return ndss::Result<ndss::IndexBuildStats>(corpus.status());
    }
    return ndss::BuildIndexInMemory(*corpus, index_dir, options);
  }();
  if (!stats.ok()) ndss::tools::Die(stats.status().ToString());

  std::printf("index built in %s\n", index_dir.c_str());
  std::printf("  sketch     : %s\n", ndss::SketchSchemeName(options.sketch));
  std::printf("  windows    : %llu\n",
              static_cast<unsigned long long>(stats->num_windows));
  std::printf("  index size : %.2f MB\n", stats->index_bytes / 1e6);
  std::printf("  spill      : %.2f MB\n", stats->spill_bytes / 1e6);
  // The phase times are thread-seconds summed over the build's workers;
  // only the total is wall time.
  std::printf("  generation : %.3f thread-s\n", stats->generate_seconds);
  std::printf("  sort       : %.3f thread-s\n", stats->sort_seconds);
  std::printf("  io         : %.3f thread-s\n", stats->io_seconds);
  std::printf("  total      : %.3f s (wall)\n", stats->total_seconds);
  return 0;
}
