#ifndef NDSS_NET_SERVE_H_
#define NDSS_NET_SERVE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/query_context.h"
#include "ingest/ingester.h"
#include "net/http.h"
#include "net/json.h"
#include "query/searcher.h"
#include "shard/sharded_searcher.h"

namespace ndss {
namespace net {

/// Server-side policy for one SearchService.
struct ServeOptions {
  /// Admission control: requests already being served when a new search
  /// arrives. At the limit the new request is rejected immediately with
  /// 429 (code ResourceExhausted, error "admission"), before any index
  /// work. 0 = unlimited. Read-only admin endpoints are exempt.
  size_t max_inflight = 64;

  /// Server-wide memory cap: every request's working-set budget parents
  /// into this one, so concurrent searches share it. 0 = accounting only.
  uint64_t server_memory_bytes = 0;

  /// Per-request working-set cap applied when the request does not name
  /// its own `memory_mb`. 0 = none (the request still parents into the
  /// server budget for accounting).
  uint64_t default_request_memory_bytes = 0;

  /// Deadline applied when the request carries none. 0 = none.
  int64_t default_deadline_ms = 0;

  /// Search defaults; a request's `theta` / `no_prefix_filter` fields
  /// override per call.
  SearchOptions search;

  /// Worker threads and shared-cache budget for /v1/search_batch.
  size_t batch_threads = 1;
  uint64_t cache_budget_bytes = 256ull << 20;

  /// Honors a request's `debug_sleep_ms` field (the handler sleeps before
  /// searching, while counted as in-flight). Test/load-harness only: makes
  /// admission-control rejection deterministic.
  bool allow_debug_sleep = false;
};

/// Monotonic counters for /v1/status and operator logs. Snapshot-read.
struct ServeCounters {
  uint64_t requests = 0;            ///< everything routed, admin included
  uint64_t searches_ok = 0;
  uint64_t rejected_admission = 0;  ///< 429 before touching the index
  uint64_t deadline_exceeded = 0;   ///< 504
  uint64_t cancelled = 0;           ///< 499
  uint64_t resource_exhausted = 0;  ///< 429 from a memory budget
  uint64_t invalid = 0;             ///< 400/404/405
  uint64_t failed = 0;              ///< 5xx
  uint64_t ingests_ok = 0;          ///< successful /v1/ingest requests
  uint64_t docs_ingested = 0;       ///< documents acknowledged via HTTP
};

/// The ndss_serve request router: maps HTTP requests onto the governed
/// ShardedSearcher plumbing.
///
/// Routes:
///   POST /v1/search        {"tokens":[...], "theta":0.8, "deadline_ms":50,
///                           "memory_mb":64, "no_prefix_filter":false}
///   POST /v1/search_batch  {"queries":[[...],...], "deadline_ms":..,
///                           "batch_deadline_ms":.., "memory_mb":..,
///                           "inflight_mb":.., "shed_policy":"reject-new"}
///   POST /v1/ingest        {"documents":[[tok,...],...]} — appends through
///                          the attached Ingester; 200 only after the WAL
///                          fsync (the documents are durable AND visible)
///   GET  /v1/status        server + topology + counters snapshot
///   GET  /v1/shards        per-shard health (self-healing state machine)
///   GET  /v1/healthz       liveness + readiness; 200 when ready, 503 when
///                          not (WAL replay in progress, a shard
///                          quarantined or dropped, or the ingester
///                          poisoned). Admission-exempt like /v1/status, so
///                          an orchestrator's probe never competes with
///                          query traffic for admission slots.
///
/// Governance mapping: `deadline_ms` (or the `x-ndss-deadline-ms` header,
/// which wins) becomes the QueryContext deadline measured from request
/// receipt; `memory_mb` becomes a per-request MemoryBudget parented into
/// the server-wide budget; the in-flight limit rejects before any work.
/// Outcome statuses map to HTTP via HttpStatusForCode (DeadlineExceeded →
/// 504, Cancelled → 499, ResourceExhausted → 429), and a governed failure
/// body carries the partial SearchStats the query accumulated, exactly as
/// the library's partial-stats contract promises.
///
/// Numeric request fields are validated strictly (the JSON layer shares
/// common/parse.h with the CLI flags): a malformed value is a 400, never a
/// silent zero.
///
/// Thread-safety: Handle may be called from any number of server workers;
/// the searcher's own thread-safety covers concurrent searches and online
/// attach/detach.
class SearchService {
 public:
  SearchService(ShardedSearcher* searcher, ServeOptions options);

  /// Attaches the write path. Without one, /v1/ingest answers 400 and
  /// /v1/healthz ignores ingestion state. Observed, not owned; must outlive
  /// the service (or be detached with nullptr first).
  void set_ingester(Ingester* ingester) {
    ingester_.store(ingester, std::memory_order_release);
  }

  /// Marks WAL replay in progress: /v1/healthz reports ready=false until
  /// cleared. Lets ndss_serve bind its port (and answer probes) before the
  /// potentially long recovery pass finishes.
  void set_wal_replaying(bool replaying) {
    wal_replaying_.store(replaying, std::memory_order_release);
  }

  /// The HttpServer handler.
  HttpResponse Handle(const HttpRequest& request);

  ServeCounters counters() const;
  int64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  const ServeOptions& options() const { return options_; }

  /// The server-wide budget every request parents into. Exposed so main()
  /// can charge shared subsystems against the same cap — ndss_serve
  /// parents the cross-query list cache here, which makes cached lists and
  /// inflight query memory compete for one server_memory_bytes limit.
  MemoryBudget* server_budget() { return &server_budget_; }

 private:
  HttpResponse HandleSearch(const HttpRequest& request);
  HttpResponse HandleSearchBatch(const HttpRequest& request);
  HttpResponse HandleIngest(const HttpRequest& request);
  HttpResponse HandleStatus();
  HttpResponse HandleShards();
  HttpResponse HandleHealthz();

  /// 4xx/5xx response with {"code","error"} and counter classification;
  /// with `partial_stats`, a governed failure's stats follow as "stats".
  HttpResponse ErrorResponse(const Status& status,
                             const SearchStats* partial_stats = nullptr);

  ShardedSearcher* const searcher_;
  const ServeOptions options_;
  MemoryBudget server_budget_;
  std::atomic<Ingester*> ingester_{nullptr};
  std::atomic<bool> wal_replaying_{false};
  std::atomic<int64_t> inflight_{0};

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> searches_ok_{0};
  std::atomic<uint64_t> rejected_admission_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> resource_exhausted_{0};
  std::atomic<uint64_t> invalid_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> ingests_ok_{0};
  std::atomic<uint64_t> docs_ingested_{0};
};

/// Writes one SearchResult's members ("spans", "rectangles", "stats") into
/// the object `writer` has open. The single and batch endpoints write
/// their replies through this, straight into the response body; it is the
/// one field list of a serialized SearchResult.
void WriteSearchResult(const SearchResult& result, JsonWriter* writer);

/// Writes a SearchStats object as the next value (partial-stats bodies on
/// governed failures, and the "stats" member above).
void WriteSearchStats(const SearchStats& stats, JsonWriter* writer);

/// The tree form of WriteSearchResult: sets the same members on `out`, so
/// Dump()ing the object prints the bytes the server writes. The clients'
/// equivalence gates re-serialize direct Searcher answers through this to
/// compare byte-for-byte.
void SearchResultToJson(const SearchResult& result, JsonValue* out);

/// The tree form of WriteSearchStats.
JsonValue SearchStatsToJson(const SearchStats& stats);

}  // namespace net
}  // namespace ndss

#endif  // NDSS_NET_SERVE_H_
