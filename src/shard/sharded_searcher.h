#ifndef NDSS_SHARD_SHARDED_SEARCHER_H_
#define NDSS_SHARD_SHARDED_SEARCHER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/result.h"
#include "common/status.h"
#include "index/index_meta.h"
#include "query/list_cache.h"
#include "query/searcher.h"
#include "shard/shard_health.h"
#include "shard/shard_manifest.h"
#include "text/types.h"

namespace ndss {

/// Options for opening a ShardedSearcher.
struct ShardedSearcherOptions {
  /// Passed to every per-shard Searcher::Open (function-level degradation
  /// within one shard).
  SearcherOptions shard_options;

  /// Shard-level fault isolation. At open: a shard whose index cannot be
  /// opened is dropped (with a warning) instead of failing Open, as long as
  /// at least one shard survives. At query time: a shard whose search fails
  /// with Corruption is dropped for the Searcher's lifetime and the query
  /// is answered by the survivors, with SearchStats::degraded_shards
  /// counting the exclusions. Text ids of the surviving shards do NOT
  /// shift: a dropped shard keeps its id range (its texts simply stop
  /// appearing in answers), unlike DetachShard which renumbers.
  bool allow_shard_drop = false;

  /// Self-healing serving. Implies shard-level isolation (as if
  /// `allow_shard_drop` were set) and extends it: ANY non-governance
  /// sub-query failure excludes that shard from that query's answer
  /// (`degraded_shards` counts it honestly) while a per-shard
  /// ShardHealthTracker classifies the error — Corruption quarantines the
  /// shard immediately, transient IOErrors only once a circuit breaker
  /// trips (consecutive or windowed error-rate; see ShardHealthOptions).
  /// A background HealthMonitor thread probes quarantined shards (cheap
  /// open + header/CRC validation, escalating to a deep full-list check
  /// after repeated failures) and atomically reopens recovered shards via
  /// the same epoch-guarded topology swap AttachShard uses — so a
  /// transient fault degrades answers instead of failing queries, and
  /// serving returns to exact (degraded_shards == 0) once the fault
  /// clears. Unlike an allow_shard_drop drop, quarantine is reversible.
  bool enable_self_healing = false;

  /// Breaker thresholds and probe cadence for self-healing (ignored unless
  /// `enable_self_healing`).
  ShardHealthOptions health;

  /// Helper threads for the scatter phase. The caller of Search runs
  /// shard searches itself; these helpers join it only once its scatter
  /// is the only one in flight on the searcher (see the class comment).
  /// 0 = one per shard at open time, capped at the hardware concurrency.
  /// The pool is shared by every concurrent caller and every query of a
  /// batch.
  size_t num_threads = 0;
};

/// One shard's place in the current topology, for observability.
struct ShardInfo {
  std::string dir;       ///< resolved index directory
  TextId text_offset;    ///< first global text id of this shard
  uint64_t num_texts;    ///< texts this shard contributes
  bool dropped;          ///< isolated after a corruption (still holds its
                         ///< id range; contributes nothing to answers)

  /// Live health of this shard. Under enable_self_healing this is the
  /// tracker's snapshot (state machine + drop/quarantine/reopen counters +
  /// last error); otherwise the counters stay zero and `health.state` just
  /// mirrors `dropped` (a legacy allow_shard_drop drop reads as a
  /// quarantine that never heals).
  ShardHealthSnapshot health;
};

/// Serves a ShardManifest's shard set as if it were one merged index,
/// without paying the merge.
///
///   NDSS_ASSIGN_OR_RETURN(ShardedSearcher s, ShardedSearcher::Open(dir));
///   NDSS_ASSIGN_OR_RETURN(SearchResult r, s.Search(query, options));
///
/// Search / governed Search / SearchBatch scatter each query over every
/// shard's proven single-shard path, remap each shard's local text ids
/// into global ids using the concatenation-offset semantics MergeIndexes
/// documents, and concatenate in shard order. Because shards partition the corpus by text and the
/// single-shard algorithm is exact per text, the merged `rectangles` and
/// `spans` are bit-identical to a Searcher over MergeIndexes({shards}) —
/// the equivalence the sharded_searcher_test proves. SearchStats are the
/// element-wise sum over shards (classification counters can differ from
/// the merged index's, since list lengths are per-shard), except:
/// `degraded_funcs` is the worst shard's count, `degraded_shards` counts
/// shards excluded from the answer, and `wall_seconds` is the end-to-end
/// scatter-gather latency.
///
/// Who does the work: the query's sketch is computed once and shared by
/// every shard (the set has one sketch family). The calling thread runs
/// shard searches itself; once its scatter is the only one in flight on
/// this searcher it also offers the internal pool helpers that claim the
/// remaining shards with it, so one query on a quiet searcher spans the
/// cores, while under concurrent load every caller runs its own shards
/// with no handoff or gather barrier.
///
/// Governance composes hierarchically: one deadline and cancel flag are
/// shared by every shard's sub-query, and each shard gets an accounting
/// arena parented to the query's MemoryBudget, so the caller's cap spans
/// the whole scatter. A shard returning DeadlineExceeded / Cancelled /
/// ResourceExhausted fails the query with that status while the merged
/// partial stats (and any partial matches) survive, mirroring the
/// single-shard partial-stats contract.
///
/// Topology changes are online: AttachShard / DetachShard durably commit a
/// new manifest (tmp + fsync + rename, epoch + 1) and then swap an
/// immutable topology snapshot. In-flight queries keep the snapshot they
/// started with — they finish on their epoch's shard list and id
/// numbering, and a detached shard's resources are released only when the
/// last such query completes.
///
/// Thread-safety: once opened, all Search/SearchBatch variants may be
/// called from any number of threads, concurrently with AttachShard /
/// DetachShard (topology changes serialize among themselves). Moving a
/// ShardedSearcher must not overlap with any in-flight call.
class ShardedSearcher {
 public:
  /// Opens the shard set described by `<set_dir>/MANIFEST`.
  static Result<ShardedSearcher> Open(
      const std::string& set_dir, const ShardedSearcherOptions& options = {});

  ShardedSearcher(ShardedSearcher&&) noexcept;
  ShardedSearcher& operator=(ShardedSearcher&&) noexcept;
  ~ShardedSearcher();

  /// Scatter-gather search over the current topology (see class comment
  /// for the merge semantics).
  Result<SearchResult> Search(std::span<const Token> query,
                              const SearchOptions& options);

  /// Governed variant: `ctx` (deadline, cancel flag, memory budget) is
  /// shared across every shard's sub-query; nullptr = ungoverned. On a
  /// governance failure the merged partial stats survive in `*result`.
  Status Search(std::span<const Token> query, const SearchOptions& options,
                const QueryContext* ctx, SearchResult* result);

  /// Batch scatter-gather: Searcher's batch loop (RunGovernedBatch) runs
  /// each query through Search's scatter, keeping `num_threads` queries,
  /// and at least one per scatter-pool thread, in flight on workers of the
  /// call's own; with several in flight, each worker runs its query's
  /// shards itself. Every query sees the topology snapshotted at the call; a
  /// shard dropped partway through is skipped by later queries. Lists are
  /// read through the EnableListCache cache if enabled, else through one
  /// batch cache of `cache_budget_bytes` that every shard and the delta
  /// share under their own owner ids. Fails with Corruption if every shard
  /// is dropped and there is no delta; otherwise, on error, with the
  /// lowest-index failing query's status.
  Result<std::vector<SearchResult>> SearchBatch(
      const std::vector<std::vector<Token>>& queries,
      const SearchOptions& options,
      uint64_t cache_budget_bytes = 256ull << 20, size_t num_threads = 1);

  /// Governed batch: the batch above under `limits`, with the semantics of
  /// Searcher's governed SearchBatch. `query_timeout_micros` and
  /// `max_query_bytes` bound one query across all shards, as a
  /// QueryContext does for Search; per-query statuses merge like Search
  /// and BatchStats classify the merged outcomes (a query is degraded when
  /// it dropped functions or shards).
  Result<BatchResult> SearchBatch(
      const std::vector<std::vector<Token>>& queries,
      const SearchOptions& options, const BatchLimits& limits,
      uint64_t cache_budget_bytes = 256ull << 20, size_t num_threads = 1);

  /// Opens `shard_dir`, validates it against the current topology (no
  /// duplicate, identical (k, seed, t), text-id headroom), durably commits
  /// the manifest with epoch + 1, then swaps the topology. The new shard's
  /// texts get ids starting at the previous topology's total.
  Status AttachShard(const std::string& shard_dir);

  /// Removes `shard_dir` (matched against manifest entries or their
  /// resolved paths) from the set: durably commits the shrunk manifest
  /// with epoch + 1, then swaps the topology. Remaining shards are
  /// renumbered by concatenation order, exactly as if the set had been
  /// created without the detached shard. The last shard cannot be
  /// detached. In-flight queries finish on the old topology.
  Status DetachShard(const std::string& shard_dir);

  // ---- streaming ingestion (see src/ingest/ingester.h) ----
  //
  // The Ingester serves its in-memory memtable through the topology as a
  // *delta*: a pseudo-shard appended after every sealed shard, whose texts
  // take the highest global ids. Queries scatter over sealed shards and
  // the delta alike, so search results over (sealed + delta) are exactly
  // what a batch build over the same documents would return. The delta is
  // not durable and never appears in the manifest — the WAL is its
  // durability, and `applied_seqno` records which prefix of the WAL the
  // sealed shards already contain.

  /// Installs (or with nullptr clears) the delta searcher. Not a durable
  /// topology change: the epoch and manifest stay put. The delta's
  /// (k, seed, t) must match the set's; its texts must fit in the 2^32 id
  /// space. In-flight queries keep the delta snapshot they started with.
  Status SetDelta(std::shared_ptr<Searcher> delta);

  /// Atomically commits a memtable spill: attaches the sealed shard at
  /// `shard_entry` (relative entries resolve against the set directory),
  /// durably commits the manifest with epoch + 1 and `applied_seqno`, and
  /// swaps the topology with `next_delta` (usually nullptr — the spilled
  /// memtable's replacement) in one step, so no query window ever sees the
  /// spilled documents twice (old delta + new shard) or not at all.
  Status PromoteDelta(const std::string& shard_entry,
                      std::shared_ptr<Searcher> next_delta,
                      uint64_t applied_seqno);

  /// Atomically commits a compaction: replaces the contiguous run of
  /// shards named by `shard_entries` (in topology order) with the single
  /// merged shard at `merged_entry`, preserving every global text id (the
  /// merged shard must hold exactly the run's texts, in order — the
  /// MergeIndexes contract). Commits the manifest with epoch + 1; the
  /// delta and applied_seqno pass through unchanged. Returns NotFound if
  /// the run no longer matches the current topology (a stale compaction
  /// plan after a concurrent attach/detach), in which case nothing
  /// changes.
  Status ReplaceShards(const std::vector<std::string>& shard_entries,
                       const std::string& merged_entry);

  // ---- cross-query list cache (see src/query/list_cache.h) ----

  /// Enables the cross-query posting-list cache: hot pass-1 lists stay
  /// decoded in memory across requests, bounded by `budget_bytes` and
  /// charged to `parent` (optionally — e.g. a server-wide MemoryBudget).
  /// Every shard (and the delta) gets an immutable owner id in the cache's
  /// keyspace; topology changes that retire a source (detach, reopen,
  /// compaction, a delta publish) retire its id, so stale entries are
  /// unreachable by construction and are garbage-collected eagerly.
  /// Answers are bit-identical with the cache on or off. Call once, before
  /// serving; InvalidArgument if already enabled.
  Status EnableListCache(uint64_t budget_bytes, MemoryBudget* parent = nullptr);

  /// The cache enabled above, for observability (nullptr when disabled).
  const CrossQueryListCache* list_cache() const;

  /// Highest WAL seqno contained in the sealed shards (see ShardManifest).
  uint64_t applied_seqno() const;

  /// Texts currently served from the delta memtable (0 when none is set).
  uint64_t delta_texts() const;

  /// The set directory this searcher serves.
  const std::string& set_dir() const;

  /// Epoch of the topology new queries will see.
  uint64_t epoch() const;

  /// Combined build parameters of the current topology: (k, seed, t) of
  /// the shared hash family, num_texts / total_tokens summed over shards
  /// (dropped shards included — they keep their id range).
  IndexMeta meta() const;

  /// Current topology, in concatenation order.
  std::vector<ShardInfo> shards() const;

 private:
  struct State;
  explicit ShardedSearcher(std::unique_ptr<State> state);

  std::unique_ptr<State> state_;
};

}  // namespace ndss

#endif  // NDSS_SHARD_SHARDED_SEARCHER_H_
