#ifndef NDSS_QUERY_SEARCHER_H_
#define NDSS_QUERY_SEARCHER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/status.h"
#include "index/index_builder.h"
#include "index/index_meta.h"
#include "index/list_source.h"
#include "query/collision_count.h"
#include "query/cost_model.h"
#include "sketch/sketch_scheme.h"
#include "text/corpus.h"
#include "text/types.h"

namespace ndss {

class CrossQueryListCache;

/// What a caller that scatters one query over many Searchers (a
/// ShardedSearcher's shards and delta) hands each of them, so the query
/// pays once for work every source would otherwise repeat.
///
/// `cache` is a list cache (see CrossQueryListCache) and `cache_owner` the
/// immutable-source id that names this Searcher's lists in its keyspace;
/// owner 0 or a null cache disables the cache. `sketch`, when set, is the
/// query's k-min-hash sketch, already computed by the caller; it must come
/// from this Searcher's sketch family (a ShardedSearcher checks
/// SameSketchFamily whenever a source joins), and nullptr makes the
/// Searcher compute it.
struct ScatterInputs {
  CrossQueryListCache* cache = nullptr;
  uint64_t cache_owner = 0;
  const MinHashSketch* sketch = nullptr;

  bool cache_enabled() const { return cache != nullptr && cache_owner != 0; }
};

/// Options for one near-duplicate search.
struct SearchOptions {
  /// Jaccard similarity threshold θ; a sequence qualifies when it shares at
  /// least ⌈kθ⌉ of the k min-hash values with the query (Definition 2).
  double theta = 0.8;

  /// Enables prefix filtering: some inverted lists are not scanned in pass
  /// 1; candidate texts probe them through zone maps instead (Section 3.5).
  bool use_prefix_filter = true;

  /// Lists with more than this many windows are "long". Use
  /// Searcher::ListCountPercentile to derive a value from the corpus's token
  /// frequency distribution (the paper's 5%–20% prefix-length experiments).
  uint64_t long_list_threshold = 4096;

  /// When prefix filtering is on, pick the deferred lists with the IO/CPU
  /// cost model (SelectDeferredLists) instead of the fixed
  /// `long_list_threshold`.
  bool use_cost_model = false;

  /// Calibration for the cost model (ignored unless use_cost_model).
  CostModelParams cost_model;

  /// Merge overlapping result sequences into disjoint spans per text (the
  /// paper's Remark in Section 3.5).
  bool merge_matches = true;

  /// Opt-in graceful degradation: when an inverted-index file fails its
  /// checksum (at open with SearcherOptions::allow_degraded, or during a
  /// query), drop that hash function and answer with k' = k - dropped and
  /// β rescaled to ⌈θk'⌉, instead of failing the query. Dropped functions
  /// are logged and surfaced in SearchStats::degraded_funcs. Results are
  /// exactly those of an index built with the surviving k' functions
  /// (min-hash seeds are chained, so function f is identical across k).
  bool allow_degraded = false;

  /// Retry policy for transient IOErrors on inverted-list reads. The
  /// default (a single attempt) preserves fail-fast behaviour; raising
  /// max_attempts makes list reads ride out flaky IO. Retries respect the
  /// query's deadline: the backoff sleep is clamped to the remaining time
  /// and retrying stops once the deadline passes.
  RetryPolicy read_retry{.max_attempts = 1};
};

/// Options for opening a Searcher.
struct SearcherOptions {
  /// When true, an index file that is missing or fails its checksum is
  /// dropped (with a warning) instead of failing Open; queries must then
  /// also pass SearchOptions::allow_degraded. At least one file must
  /// survive.
  bool allow_degraded = false;
};

/// A rectangle of matching sequences in a specific text (see
/// MatchRectangle).
struct TextMatchRectangle {
  TextId text;
  MatchRectangle rect;
};

/// A merged, disjoint match span: tokens [begin, end] of `text` contain at
/// least one sequence sharing >= ⌈kθ⌉ min-hashes with the query.
struct MatchSpan {
  TextId text;
  uint32_t begin;
  uint32_t end;
  /// Highest collision count among the rectangles merged into this span.
  uint32_t collisions;
  /// collisions / k — the estimated Jaccard similarity.
  double estimated_similarity;
};

/// Cost counters for one search; these feed the Figure 3 experiments.
struct SearchStats {
  uint64_t io_bytes = 0;          ///< bytes read from index files
  uint32_t short_lists = 0;       ///< lists scanned fully (pass 1)
  uint32_t long_lists = 0;        ///< lists handled by zone-map probes
  uint32_t empty_lists = 0;       ///< query min-hash keys absent from index
  uint32_t cache_hits = 0;        ///< pass-1 lists served from the batch's
                                  ///< own list cache (no IO)
  uint32_t shared_cache_hits = 0; ///< pass-1 lists served from the
                                  ///< cross-query list cache (no IO)
  uint64_t windows_scanned = 0;   ///< windows fed to CollisionCount
  uint64_t pass1_candidates = 0;  ///< distinct texts named by the
                                  ///< L - beta1 + 1 shortest pass-1 lists,
                                  ///< the ones the pass-1 filter examined
  uint64_t groups_swept = 0;      ///< texts found in >= beta1 pass-1 lists,
                                  ///< the ones pass-1 CollisionCount ran on
  uint64_t candidate_texts = 0;   ///< texts surviving pass 1
  uint32_t degraded_funcs = 0;    ///< hash functions dropped for this query
                                  ///< (0 = full-fidelity answer)
  uint32_t degraded_shards = 0;   ///< shards excluded from this answer (only
                                  ///< ever non-zero for a ShardedSearcher)
  double io_seconds = 0;          ///< time in index reads
  double cpu_seconds = 0;         ///< time in grouping + CollisionCount
  double wall_seconds = 0;        ///< end-to-end latency of the query
  uint64_t peak_memory_bytes = 0; ///< high-water mark of the query's memory
                                  ///< budget (0 when no budget is attached)
};

/// Result of one near-duplicate search.
struct SearchResult {
  /// All qualifying rectangles (exact compact representation).
  std::vector<TextMatchRectangle> rectangles;
  /// Disjoint merged spans (filled when options.merge_matches).
  std::vector<MatchSpan> spans;
  SearchStats stats;
};

/// What SearchBatch does with queries it can no longer serve once the
/// batch deadline has passed.
enum class ShedPolicy {
  /// Queries not yet started are shed (rejected without running); queries
  /// already in flight run to completion under their own deadlines.
  kRejectNew,
  /// Additionally, in-flight queries inherit the batch deadline and stop at
  /// their next checkpoint with DeadlineExceeded.
  kCancelRunning,
};

/// Resource limits for one governed SearchBatch call. Zero disables the
/// corresponding limit; a default-constructed BatchLimits governs nothing.
/// Every limit means the same on a Searcher and on a ShardedSearcher: one
/// query is bounded across all the shards it scatters over.
struct BatchLimits {
  /// Aggregate wall-clock budget for the whole batch, measured from the
  /// SearchBatch call. Once exceeded, unstarted queries are shed (see
  /// `shed_policy` for in-flight ones).
  int64_t batch_timeout_micros = 0;

  /// Per-query wall-clock budget, measured from the moment the query is
  /// picked up by a worker (not from batch start: a queued query has not
  /// spent anything yet).
  int64_t query_timeout_micros = 0;

  /// Cap on one query's working memory (decoded lists, candidate groups,
  /// scan scratch). A query that would exceed it fails with
  /// ResourceExhausted; the rest of the batch is unaffected.
  uint64_t max_query_bytes = 0;

  /// Cap on batch-wide in-flight memory: the batch's list cache plus every
  /// live query arena. Lists that would exceed it are served without being
  /// retained; query charges beyond it fail that query with
  /// ResourceExhausted.
  uint64_t max_inflight_bytes = 0;

  ShedPolicy shed_policy = ShedPolicy::kCancelRunning;

  /// Optional parent of this batch's inflight budget (batch list cache +
  /// live query arenas), e.g. a server-wide budget shared by concurrent
  /// requests. Observed, not owned; must outlive the SearchBatch call.
  MemoryBudget* inflight_parent = nullptr;
};

/// Batch-level governance counters. `queries_degraded` counts ok queries
/// answered with dropped functions, so it overlaps `queries_ok`; the other
/// outcome counters partition the batch:
/// ok + deadline_exceeded + shed + resource_exhausted + failed == size.
struct BatchStats {
  uint64_t queries_ok = 0;
  uint64_t queries_degraded = 0;
  uint64_t queries_deadline_exceeded = 0;
  uint64_t queries_shed = 0;  ///< rejected unstarted (status Cancelled)
  uint64_t queries_resource_exhausted = 0;
  uint64_t queries_failed = 0;  ///< any other error (IO, corruption, ...)
  uint64_t peak_query_bytes = 0;     ///< max per-query arena high-water mark
  uint64_t peak_inflight_bytes = 0;  ///< cache + arenas high-water mark
};

/// Result of one governed SearchBatch call. `results[i]` holds whatever
/// query i produced before `statuses[i]` (partial stats survive a deadline
/// or budget failure; a shed query's result is empty).
struct BatchResult {
  std::vector<SearchResult> results;
  std::vector<Status> statuses;
  BatchStats stats;
};

/// One query of a governed batch: runs `query` under `ctx`, reading pass-1
/// lists through `cache` (nullptr = read every list directly), and writes
/// the answer or the partial stats into `*result`.
using BatchQueryFn =
    std::function<Status(std::span<const Token> query, const QueryContext& ctx,
                         CrossQueryListCache* cache, SearchResult* result)>;

/// The one governed batch loop, behind Searcher::SearchBatch and
/// ShardedSearcher::SearchBatch (the governed Searcher overload documents
/// the semantics); `run_query` is the per-query work. Unless a
/// `server_cache` is given, a list cache of `cache_budget_bytes` (if > 0)
/// is scoped to the call and its hits are reported as `cache_hits`. The
/// workers for `num_threads > 1` belong to the call, so `run_query` may
/// block on another pool.
Result<BatchResult> RunGovernedBatch(
    const std::vector<std::vector<Token>>& queries, const BatchLimits& limits,
    CrossQueryListCache* server_cache, uint64_t cache_budget_bytes,
    size_t num_threads, const BatchQueryFn& run_query);

/// Near-duplicate sequence search over an index directory (Algorithm 3).
///
///   NDSS_ASSIGN_OR_RETURN(Searcher searcher, Searcher::Open(dir));
///   NDSS_ASSIGN_OR_RETURN(SearchResult result,
///                         searcher.Search(query_tokens, options));
///
/// The searcher keeps the k inverted-index directories in memory and reads
/// lists on demand through positional (pread-style) IO.
///
/// Thread-safety: once opened, Search and SearchBatch may be called from
/// any number of threads on one Searcher, and SearchBatch itself fans
/// queries out across an internal pool when `num_threads > 1`. Degraded-
/// mode function drops are coordinated under a mutex: each query runs over
/// an immutable snapshot of the currently healthy sources, and a dropped
/// source stays alive (but unused) for the Searcher's lifetime so in-flight
/// queries never race with its destruction. Moving a Searcher must not
/// overlap with any in-flight query.
class Searcher {
 public:
  /// Opens the index previously built into `dir`. Refuses a directory with
  /// no CURRENT commit marker (an interrupted build). With
  /// `options.allow_degraded`, checksum-failed index files are dropped
  /// instead of failing the open.
  static Result<Searcher> Open(const std::string& dir,
                               const SearcherOptions& options = {});

  /// Builds an ephemeral, fully in-memory index over `corpus` and returns a
  /// searcher on it — no files touched. For small or short-lived corpora
  /// (document-vs-document alignment, tests). Only k, t, seed, and the
  /// window method of `options` apply.
  static Result<Searcher> InMemory(const Corpus& corpus,
                                   const IndexBuildOptions& options);

  /// Wraps caller-supplied list sources, one per hash function of `meta`
  /// (nullptr = that function is missing, searchable only with
  /// allow_degraded). For storage that is neither an index directory nor
  /// an in-memory corpus, and for tests that substitute a fake source.
  static Result<Searcher> FromSources(
      const IndexMeta& meta,
      std::vector<std::unique_ptr<InvertedListSource>> sources);

  // Defined out of line: the destructor needs the complete DegradedState.
  Searcher(Searcher&&) noexcept;
  Searcher& operator=(Searcher&&) noexcept;
  ~Searcher();

  /// Finds all sequences of the indexed corpus sharing at least ⌈kθ⌉
  /// min-hash values with `query`. Output sequences are clamped to length
  /// >= t (the index's length threshold).
  Result<SearchResult> Search(std::span<const Token> query,
                              const SearchOptions& options);

  /// Governed variant: the query runs under `ctx` (deadline, cancellation,
  /// memory budget; nullptr = ungoverned, bit-identical to the overload
  /// above). Returns the outcome as a Status and writes into `*result`
  /// either the full answer (OK) or whatever was computed before the
  /// failure — on DeadlineExceeded / Cancelled / ResourceExhausted the
  /// partial SearchStats (lists classified, bytes read, windows scanned so
  /// far) survive for observability, which the Result-returning overload
  /// cannot express.
  ///
  /// `shared` carries what a scattering caller shares (see ScatterInputs).
  /// Pass-1 lists are read through its list cache when that is enabled.
  /// Matches and spans are bit-identical with or without it; only the
  /// SearchStats IO attribution changes (a served list counts a
  /// shared_cache_hit instead of io_bytes). A shared sketch changes nothing
  /// but who computes it (and whose cpu_seconds it lands in).
  Status Search(std::span<const Token> query, const SearchOptions& options,
                const QueryContext* ctx, SearchResult* result,
                const ScatterInputs& shared = {});

  /// Runs many queries with a shared pass-1 list cache: Zipfian token
  /// skew makes nearby queries hit the same min-hash keys, so the batch
  /// reads its lists through a CrossQueryListCache of `cache_budget_bytes`
  /// that lives as long as the call (the workload shape of the Section 5
  /// evaluation, which issues one query per sliding window). A list is read
  /// once while it stays cached; past the budget, CLOCK eviction decides
  /// which lists stay (0 reads every list directly). With
  /// `num_threads > 1` the queries are partitioned across an internal
  /// thread pool; matches and spans are identical to the sequential run
  /// and returned in input order. Per-query SearchStats attribute each list
  /// read to the query that performed it (a cached list's bytes are charged
  /// to the loader; later users count a cache_hit), so aggregate batch cost
  /// is the element-wise sum of the per-query stats regardless of thread
  /// count or scheduling.
  ///
  /// On error the whole batch fails; with several failing queries the
  /// status of the lowest-index one is returned.
  Result<std::vector<SearchResult>> SearchBatch(
      const std::vector<std::vector<Token>>& queries,
      const SearchOptions& options,
      uint64_t cache_budget_bytes = 256ull << 20, size_t num_threads = 1);

  /// Governed batch: admission control and load shedding on top of the
  /// cached batch above (RunGovernedBatch over SearchInternal). Every query
  /// runs under its own QueryContext derived from `limits` (per-query
  /// deadline, per-query arena parented to a batch-wide inflight budget);
  /// once the batch deadline passes,
  /// unstarted queries are shed and — under ShedPolicy::kCancelRunning —
  /// in-flight ones stop at their next checkpoint, so total batch
  /// wall-clock stays within the deadline plus one checkpoint interval.
  ///
  /// Per-query outcomes land in `statuses` (the call itself only fails on
  /// invalid arguments); counters in `stats` classify them. With a
  /// default-constructed BatchLimits the results are identical to the
  /// ungoverned SearchBatch.
  Result<BatchResult> SearchBatch(
      const std::vector<std::vector<Token>>& queries,
      const SearchOptions& options, const BatchLimits& limits,
      uint64_t cache_budget_bytes = 256ull << 20, size_t num_threads = 1);

  /// Build-time parameters of the open index.
  const IndexMeta& meta() const { return meta_; }

  /// The smallest list-length threshold such that at most `fraction` of all
  /// windows live in lists above it — used to set
  /// SearchOptions::long_list_threshold from a target prefix length.
  uint64_t ListCountPercentile(double fraction) const;

  /// Total indexed windows across the live sources (the sum of every
  /// directory's list counts). The ingestion memtable sizes its spill
  /// budget from this (windows dominate an in-memory index's footprint).
  uint64_t TotalWindows() const;

  /// Number of hash functions currently dropped due to corruption.
  uint32_t degraded_funcs() const;

 private:
  struct DegradedState;

  Searcher(IndexMeta meta, SketchScheme scheme,
           std::vector<std::unique_ptr<InvertedListSource>> sources);

  /// Raw pointers to the sources healthy right now (nullptr per dropped
  /// function). Pointees outlive every query: sources are never destroyed
  /// after Open, only flagged dropped.
  std::vector<InvertedListSource*> SnapshotSources() const;

  /// Flags `func` dropped (idempotent; logs on the first drop).
  void DropFunc(uint32_t func, const Status& cause);

  /// Full search (degraded retries included) writing into `*result`; on
  /// failure the partial stats computed so far are left in place.
  Status SearchInternal(std::span<const Token> query,
                        const SearchOptions& options,
                        const ScatterInputs& shared, const QueryContext* ctx,
                        SearchResult* result);

  /// One search attempt over the `sources` snapshot. On a list checksum
  /// failure, reports the offending function via `failed_func` so
  /// SearchInternal can drop it and retry when degradation is allowed.
  Status SearchOnce(const MinHashSketch& sketch, const SearchOptions& options,
                    const ScatterInputs& shared,
                    const std::vector<InvertedListSource*>& sources,
                    const QueryContext* ctx, uint32_t* failed_func,
                    SearchResult* result);

  IndexMeta meta_;
  SketchScheme scheme_;
  std::vector<std::unique_ptr<InvertedListSource>> sources_;
  /// Heap-allocated so Searcher stays movable (holds a mutex).
  std::unique_ptr<DegradedState> degraded_;
};

/// Merges all rectangles of `rectangles` (any text order) into disjoint
/// per-text spans, keeping only sequences of length >= t. Exposed for tests.
std::vector<MatchSpan> MergeRectangles(
    std::vector<TextMatchRectangle> rectangles, uint32_t t, uint32_t k);

}  // namespace ndss

#endif  // NDSS_QUERY_SEARCHER_H_
