#ifndef NDSS_INDEX_INDEX_BUILDER_H_
#define NDSS_INDEX_INDEX_BUILDER_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "index/index_format.h"
#include "index/index_meta.h"
#include "rmq/rmq.h"
#include "text/corpus.h"
#include "text/corpus_file.h"
#include "window/window_generator.h"

namespace ndss {

/// Options controlling index construction (Algorithm 1 and the out-of-core
/// hash-aggregation variant, Section 3.4).
struct IndexBuildOptions {
  /// Number of min-hash functions k (one inverted-index file each).
  uint32_t k = 16;

  /// Master seed of the hash family; queries must use the same (k, seed).
  uint64_t seed = 0x5eed5eed5eed5eedULL;

  /// Sketching scheme (see SketchSchemeId). kCMinHash hashes each token
  /// once and derives the k functions by circulant re-use, instead of k
  /// independent hash passes; queries must use the same scheme.
  SketchSchemeId sketch = SketchSchemeId::kIndependent;

  /// Length threshold t: only sequences with at least t tokens are indexed.
  uint32_t t = 25;

  /// Zone-map parameters (see InvertedIndexWriter).
  uint32_t zone_step = 64;
  uint32_t zone_threshold = 256;

  /// Posting-list encoding: raw 16-byte records or delta+varint compressed
  /// (roughly 2-3x smaller lists at a small decode cost; compared in
  /// bench_ablation_compression).
  index_format::PostingFormat posting_format = index_format::kFormatRaw;

  /// Worker threads. The k functions are built in parallel on
  /// min(num_threads, k) workers, each generating, ordering and writing whole
  /// functions; the C-MinHash base-row pass splits the texts instead.
  size_t num_threads = 1;

  /// How windows are generated (paper's RMQ divide-and-conquer or the
  /// equivalent O(n) monotonic stack).
  WindowGenMethod window_method = WindowGenMethod::kMonotonicStack;
  RmqKind rmq_kind = RmqKind::kFischerHeun;

  // ---- out-of-core build only ----

  /// Approximate memory available for one aggregation partition.
  uint64_t memory_budget_bytes = 512ull << 20;

  /// Fan-out of the hash partitioning.
  uint32_t num_partitions = 16;

  /// Tokens per streamed corpus batch.
  uint64_t batch_tokens = 16ull << 20;
};

/// Measurements from one index build; these feed the Figure 2 experiments.
///
/// The three phase times are thread-seconds: each function's time in the
/// phase, summed over all functions and workers, so with num_threads > 1
/// they add up to more than total_seconds. generate_seconds also holds the
/// wall time of the C-MinHash base-row pass, which runs before the
/// per-function work.
struct IndexBuildStats {
  uint64_t num_windows = 0;     ///< total compact windows across all k files
  uint64_t index_bytes = 0;     ///< total bytes of the k inverted files
  uint64_t spill_bytes = 0;     ///< spill traffic of the out-of-core build
  double generate_seconds = 0;  ///< hashing + window generation
  double sort_seconds = 0;      ///< ordering windows by key
  double io_seconds = 0;        ///< index/spill file writing
  double total_seconds = 0;     ///< wall clock of the whole build
};

/// Builds the k inverted-index files for an in-memory corpus into directory
/// `dir` (created if needed) — the paper's medium-corpus path. Functions are
/// built in parallel on min(num_threads, k) workers; each holds one
/// function's windows plus equal-sized ordering scratch, so peak memory is
/// about 2 * workers function-sized window vectors. The index bytes do not
/// depend on num_threads. The meta file and the CURRENT marker are written
/// only after every function's file is published; on failure the lowest
/// failing function's status is returned.
Result<IndexBuildStats> BuildIndexInMemory(const Corpus& corpus,
                                           const std::string& dir,
                                           const IndexBuildOptions& options);

/// Builds the index for a corpus file that may not fit in memory, using
/// streaming batches and hash aggregation with disk spill partitions
/// (recursively re-partitioned when above the memory budget) — the paper's
/// large-corpus path.
Result<IndexBuildStats> BuildIndexExternal(const std::string& corpus_path,
                                           const std::string& dir,
                                           const IndexBuildOptions& options);

}  // namespace ndss

#endif  // NDSS_INDEX_INDEX_BUILDER_H_
