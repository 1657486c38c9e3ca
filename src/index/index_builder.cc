#include "index/index_builder.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "common/file_io.h"
#include "common/logging.h"
#include "common/retry.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "index/inverted_index_writer.h"
#include "index/ordered_windows.h"
#include "index/posting.h"
#include "sketch/sketch_scheme.h"

namespace ndss {

namespace {

Status ValidateOptions(const IndexBuildOptions& options) {
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (options.t == 0) return Status::InvalidArgument("t must be >= 1");
  if (options.zone_step == 0) {
    return Status::InvalidArgument("zone_step must be >= 1");
  }
  if (options.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  return Status::OK();
}

IndexMeta MakeMeta(const IndexBuildOptions& options, uint64_t num_texts,
                   uint64_t total_tokens) {
  IndexMeta meta;
  meta.k = options.k;
  meta.seed = options.seed;
  meta.t = options.t;
  meta.num_texts = num_texts;
  meta.total_tokens = total_tokens;
  meta.zone_step = options.zone_step;
  meta.zone_threshold = options.zone_threshold;
  meta.sketch = options.sketch;
  return meta;
}

/// One build worker's private state: ordering scratch, the current
/// function's windows, and stats summed into the build's after the join.
struct FunctionWorker {
  explicit FunctionWorker(const IndexBuildOptions& options)
      : generator(options.window_method, options.rmq_kind) {}

  OrderedWindowGenerator generator;
  std::vector<KeyedWindow> windows;
  IndexBuildStats stats;
};

/// The workers of a function-parallel build: min(num_threads, k).
std::vector<FunctionWorker> MakeWorkers(const IndexBuildOptions& options) {
  return std::vector<FunctionWorker>(
      std::clamp<size_t>(options.num_threads, 1, options.k),
      FunctionWorker(options));
}

/// Runs `body(worker, func)` for every function in [0, k): worker w of W
/// takes functions w, w + W, w + 2W, ... in order and stops at its first
/// error. A single worker runs on the calling thread. Returns the lowest
/// failing function's status.
Status ForEachFunction(
    uint32_t k, std::vector<FunctionWorker>* workers,
    const std::function<Status(FunctionWorker& worker, uint32_t func)>&
        body) {
  const size_t num_workers = workers->size();
  std::vector<Status> statuses(k);
  ParallelFor(num_workers, num_workers, [&](size_t w) {
    for (size_t func = w; func < k; func += num_workers) {
      statuses[func] = body((*workers)[w], static_cast<uint32_t>(func));
      if (!statuses[func].ok()) return;
    }
  });
  for (Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

void AddWorkerStats(const std::vector<FunctionWorker>& workers,
                    IndexBuildStats* stats) {
  for (const FunctionWorker& worker : workers) {
    stats->num_windows += worker.stats.num_windows;
    stats->index_bytes += worker.stats.index_bytes;
    stats->spill_bytes += worker.stats.spill_bytes;
    stats->generate_seconds += worker.stats.generate_seconds;
    stats->sort_seconds += worker.stats.sort_seconds;
    stats->io_seconds += worker.stats.io_seconds;
  }
}

}  // namespace

Result<IndexBuildStats> BuildIndexInMemory(const Corpus& corpus,
                                           const std::string& dir,
                                           const IndexBuildOptions& options) {
  NDSS_RETURN_NOT_OK(ValidateOptions(options));
  NDSS_RETURN_NOT_OK(CreateDirectories(dir));
  // Invalidate any previous build before the first byte is written and sweep
  // leftovers of a crashed one; the marker is re-written as the last step.
  NDSS_RETURN_NOT_OK(RemoveIndexCommitMarker(dir));
  NDSS_RETURN_NOT_OK(CleanupIndexOrphans(dir));
  const SketchScheme scheme(options.sketch, options.k, options.seed);
  Stopwatch total;
  IndexBuildStats stats;

  // C-MinHash: hash every token once up front; the k per-function passes
  // below derive their rows from this (8 bytes per corpus token while the
  // build runs). kIndependent materializes nothing here.
  Stopwatch base_phase;
  const CorpusBaseRows base_rows =
      CorpusBaseRows::Build(scheme, corpus, options.num_threads);
  stats.generate_seconds += base_phase.ElapsedSeconds();

  // The k functions are independent (Algorithm 1): each worker generates,
  // orders and writes whole inverted.<f>.ndx files with its own buffers and
  // writer, sharing only the read-only corpus, scheme and base rows.
  std::vector<FunctionWorker> workers = MakeWorkers(options);
  NDSS_RETURN_NOT_OK(ForEachFunction(
      options.k, &workers,
      [&](FunctionWorker& worker, uint32_t func) -> Status {
        Stopwatch phase;
        worker.windows.clear();
        worker.generator.AppendInTextOrder(corpus, scheme, &base_rows, func,
                                           options.t, &worker.windows);
        worker.stats.generate_seconds += phase.ElapsedSeconds();

        phase.Restart();
        worker.generator.SortByKey(&worker.windows);
        worker.stats.sort_seconds += phase.ElapsedSeconds();

        phase.Restart();
        NDSS_ASSIGN_OR_RETURN(
            InvertedIndexWriter writer,
            InvertedIndexWriter::Create(IndexMeta::InvertedIndexPath(dir, func),
                                        func, options.zone_step,
                                        options.zone_threshold,
                                        options.posting_format));
        NDSS_RETURN_NOT_OK(
            writer.WriteSorted(worker.windows.data(), worker.windows.size()));
        NDSS_RETURN_NOT_OK(writer.Finish());
        worker.stats.io_seconds += phase.ElapsedSeconds();
        worker.stats.num_windows += worker.windows.size();
        worker.stats.index_bytes += writer.bytes_written();
        return Status::OK();
      }));
  AddWorkerStats(workers, &stats);

  const IndexMeta meta =
      MakeMeta(options, corpus.num_texts(), corpus.total_tokens());
  NDSS_RETURN_NOT_OK(meta.Save(dir));
  NDSS_RETURN_NOT_OK(WriteIndexCommitMarker(dir));
  stats.total_seconds = total.ElapsedSeconds();
  return stats;
}

namespace {

std::string SpillPath(const std::string& dir, uint32_t func,
                      uint32_t partition, uint32_t depth) {
  return dir + "/spill." + std::to_string(func) + "." +
         std::to_string(partition) + ".d" + std::to_string(depth);
}

/// Partition of `key` at recursion `depth`: successive base-P digits so a
/// key always stays within one sub-partition of its parent partition.
uint32_t PartitionOf(Token key, uint32_t num_partitions, uint32_t depth) {
  uint64_t value = SplitMix64(key);  // spread consecutive token ids
  for (uint32_t d = 0; d < depth; ++d) value /= num_partitions;
  return static_cast<uint32_t>(value % num_partitions);
}

/// Reads a whole spill file of raw KeyedWindow records. The read is
/// idempotent, so transient IO errors are retried with backoff rather than
/// aborting a multi-hour build.
Result<std::vector<KeyedWindow>> LoadSpill(const std::string& path) {
  std::vector<KeyedWindow> records;
  NDSS_RETURN_NOT_OK(RunWithRetry(RetryPolicy{}, [&]() -> Status {
    records.clear();
    NDSS_ASSIGN_OR_RETURN(FileReader reader, FileReader::Open(path));
    if (reader.size() % sizeof(KeyedWindow) != 0) {
      return Status::Corruption("spill file size not a record multiple: " +
                                path);
    }
    records.resize(reader.size() / sizeof(KeyedWindow));
    if (!records.empty()) {
      NDSS_RETURN_NOT_OK(reader.ReadExact(records.data(), reader.size()));
    }
    return Status::OK();
  }));
  return records;
}

struct ExternalBuildContext {
  const IndexBuildOptions* options;
  std::string dir;
  IndexBuildStats* stats;
  OrderedWindowGenerator* sorter;  // SortByKey scratch, reused per partition
};

/// Orders and writes one partition's windows into `writer`, recursively
/// re-partitioning when the spill file exceeds the memory budget
/// (Section 3.4's recursive partitioning).
Status AggregatePartition(const ExternalBuildContext& ctx,
                          const std::string& path, uint32_t func,
                          uint32_t depth, InvertedIndexWriter* writer) {
  if (!FileExists(path)) return Status::OK();
  NDSS_ASSIGN_OR_RETURN(uint64_t size, FileSize(path));
  const IndexBuildOptions& options = *ctx.options;
  constexpr uint32_t kMaxDepth = 8;
  if (size > options.memory_budget_bytes && depth < kMaxDepth &&
      options.num_partitions > 1) {
    // Re-partition into child spill files by the next key digit.
    NDSS_ASSIGN_OR_RETURN(FileReader reader, FileReader::Open(path));
    std::vector<FileWriter> children;
    std::vector<std::string> child_paths;
    for (uint32_t p = 0; p < options.num_partitions; ++p) {
      std::string child_path = path + "." + std::to_string(p);
      NDSS_ASSIGN_OR_RETURN(FileWriter child, FileWriter::Open(child_path));
      children.push_back(std::move(child));
      child_paths.push_back(std::move(child_path));
    }
    std::vector<KeyedWindow> buffer(1 << 16);
    for (;;) {
      NDSS_ASSIGN_OR_RETURN(
          size_t bytes,
          reader.Read(buffer.data(), buffer.size() * sizeof(KeyedWindow)));
      if (bytes == 0) break;
      const size_t records = bytes / sizeof(KeyedWindow);
      for (size_t i = 0; i < records; ++i) {
        const uint32_t p =
            PartitionOf(buffer[i].key, options.num_partitions, depth + 1);
        NDSS_RETURN_NOT_OK(
            children[p].Append(&buffer[i], sizeof(KeyedWindow)));
        ctx.stats->spill_bytes += sizeof(KeyedWindow);
      }
    }
    for (auto& child : children) NDSS_RETURN_NOT_OK(child.Close());
    NDSS_RETURN_NOT_OK(RemoveFile(path));
    for (const std::string& child_path : child_paths) {
      NDSS_RETURN_NOT_OK(
          AggregatePartition(ctx, child_path, func, depth + 1, writer));
    }
    return Status::OK();
  }
  // Fits (or recursion bottomed out): order in memory and emit lists. The
  // records are already in (text, l, r) order: phase 1 appends each
  // function's windows in that order (texts in id order within a batch,
  // batches in corpus order, each worker filling only its own functions'
  // buffers), splitting by partition and flushing buffers in append mode
  // both keep the relative order, and re-partitioning above streams the
  // parent file front to back. So one stable sort by key yields
  // KeyedWindowLess order (see OrderedWindowGenerator).
  Stopwatch phase;
  NDSS_ASSIGN_OR_RETURN(std::vector<KeyedWindow> records, LoadSpill(path));
  ctx.stats->io_seconds += phase.ElapsedSeconds();
  phase.Restart();
  ctx.sorter->SortByKey(&records);
  ctx.stats->sort_seconds += phase.ElapsedSeconds();
  phase.Restart();
  NDSS_RETURN_NOT_OK(writer->WriteSorted(records.data(), records.size()));
  ctx.stats->io_seconds += phase.ElapsedSeconds();
  ctx.stats->num_windows += records.size();
  return RemoveFile(path);
}

}  // namespace

Result<IndexBuildStats> BuildIndexExternal(const std::string& corpus_path,
                                           const std::string& dir,
                                           const IndexBuildOptions& options) {
  NDSS_RETURN_NOT_OK(ValidateOptions(options));
  NDSS_RETURN_NOT_OK(CreateDirectories(dir));
  // Invalidate any previous build and sweep temp/spill leftovers of a
  // crashed one before writing anything.
  NDSS_RETURN_NOT_OK(RemoveIndexCommitMarker(dir));
  NDSS_RETURN_NOT_OK(CleanupIndexOrphans(dir));
  const SketchScheme scheme(options.sketch, options.k, options.seed);
  Stopwatch total;
  IndexBuildStats stats;
  OrderedWindowGenerator sorter;
  ExternalBuildContext ctx{&options, dir, &stats, &sorter};

  NDSS_ASSIGN_OR_RETURN(CorpusFileReader corpus,
                        CorpusFileReader::Open(corpus_path));

  // Phase 1: stream batches, generate windows, spill by (func, partition).
  // The functions of a batch are generated in parallel; each worker owns
  // its functions' buffers and spill files. Buffers are flushed in append
  // mode so at most one spill file per worker is open at a time regardless
  // of k * num_partitions.
  const uint32_t P = options.num_partitions;
  std::vector<std::vector<KeyedWindow>> spill_buffers(
      static_cast<size_t>(options.k) * P);
  // Flush a buffer once it holds ~4 MiB of records.
  const size_t flush_records = (4u << 20) / sizeof(KeyedWindow);

  auto flush_buffer = [&](uint32_t func, uint32_t p,
                          IndexBuildStats* flush_stats) -> Status {
    auto& buffer = spill_buffers[static_cast<size_t>(func) * P + p];
    if (buffer.empty()) return Status::OK();
    Stopwatch phase;
    // Only the open is retried: an append that failed mid-way may have
    // reached the file, and re-appending the buffer would duplicate records.
    std::optional<FileWriter> writer;
    NDSS_RETURN_NOT_OK(RunWithRetry(RetryPolicy{}, [&]() -> Status {
      NDSS_ASSIGN_OR_RETURN(FileWriter opened,
                            FileWriter::OpenForAppend(SpillPath(dir, func, p,
                                                                0)));
      writer.emplace(std::move(opened));
      return Status::OK();
    }));
    NDSS_RETURN_NOT_OK(
        writer->Append(buffer.data(), buffer.size() * sizeof(KeyedWindow)));
    NDSS_RETURN_NOT_OK(writer->Close());
    flush_stats->spill_bytes += buffer.size() * sizeof(KeyedWindow);
    flush_stats->io_seconds += phase.ElapsedSeconds();
    buffer.clear();
    return Status::OK();
  };

  NDSS_RETURN_NOT_OK(corpus.SeekToStart());
  std::vector<FunctionWorker> workers = MakeWorkers(options);
  for (;;) {
    NDSS_ASSIGN_OR_RETURN(Corpus batch, corpus.ReadBatch(options.batch_tokens));
    if (batch.empty()) break;
    // C-MinHash: one σ pass per batch, shared by the k function loops below
    // and released with the batch (8 bytes per batch token, well under the
    // batch's own footprint).
    Stopwatch base_phase;
    const CorpusBaseRows base_rows =
        CorpusBaseRows::Build(scheme, batch, options.num_threads);
    stats.generate_seconds += base_phase.ElapsedSeconds();
    NDSS_RETURN_NOT_OK(ForEachFunction(
        options.k, &workers,
        [&](FunctionWorker& worker, uint32_t func) -> Status {
          Stopwatch phase;
          worker.windows.clear();
          worker.generator.AppendInTextOrder(batch, scheme, &base_rows, func,
                                             options.t, &worker.windows);
          worker.stats.generate_seconds += phase.ElapsedSeconds();
          for (const KeyedWindow& w : worker.windows) {
            const uint32_t p = PartitionOf(w.key, P, 0);
            auto& buffer = spill_buffers[static_cast<size_t>(func) * P + p];
            buffer.push_back(w);
            if (buffer.size() >= flush_records) {
              NDSS_RETURN_NOT_OK(flush_buffer(func, p, &worker.stats));
            }
          }
          return Status::OK();
        }));
  }
  AddWorkerStats(workers, &stats);
  for (uint32_t func = 0; func < options.k; ++func) {
    for (uint32_t p = 0; p < P; ++p) {
      NDSS_RETURN_NOT_OK(flush_buffer(func, p, &stats));
    }
  }

  // Phase 2: aggregate each partition into the final inverted files.
  for (uint32_t func = 0; func < options.k; ++func) {
    NDSS_ASSIGN_OR_RETURN(
        InvertedIndexWriter writer,
        InvertedIndexWriter::Create(IndexMeta::InvertedIndexPath(dir, func),
                                    func, options.zone_step,
                                    options.zone_threshold,
                                    options.posting_format));
    for (uint32_t p = 0; p < P; ++p) {
      NDSS_RETURN_NOT_OK(
          AggregatePartition(ctx, SpillPath(dir, func, p, 0), func, 0,
                             &writer));
    }
    NDSS_RETURN_NOT_OK(writer.Finish());
    stats.index_bytes += writer.bytes_written();
  }

  const IndexMeta meta =
      MakeMeta(options, corpus.num_texts(), corpus.total_tokens());
  NDSS_RETURN_NOT_OK(meta.Save(dir));
  NDSS_RETURN_NOT_OK(WriteIndexCommitMarker(dir));
  stats.total_seconds = total.ElapsedSeconds();
  return stats;
}

}  // namespace ndss
