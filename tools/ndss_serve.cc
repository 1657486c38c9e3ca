// ndss_serve: the network serving front-end. Serves a shard set's
// Search/SearchBatch (and read-only admin ops) over HTTP/1.1 with the full
// governance stack mapped onto requests:
//
//   ndss_serve --set=DIR [--port=0] [--threads=8] [--max-inflight=64]
//              [--server-memory-mb=0] [--list-cache-mb=0]
//              [--default-deadline-ms=0]
//              [--theta=0.8] [--no-prefix-filter] [--long-list-threshold=N]
//              [--batch-threads=1] [--no-self-healing] [--port-file=PATH]
//              [--serve-seconds=0] [--allow-debug-sleep] [--quiet]
//              [--ingest] [--memtable-mb=8] [--no-compaction]
//
// Routes (see src/net/serve.h for the request/response schema):
//   POST /v1/search        one governed query
//   POST /v1/search_batch  a governed batch (shared list cache, shedding)
//   POST /v1/ingest        append documents (requires --ingest)
//   GET  /v1/status        topology + admission + counters snapshot
//   GET  /v1/shards        per-shard self-healing health
//   GET  /v1/healthz       liveness/readiness probe (always admitted)
//
// --ingest opens the set's WAL-backed streaming write path: the port binds
// first (so /v1/healthz answers, reporting ready=false), then WAL recovery
// replays unsealed documents into the serving memtable, then /v1/ingest
// starts acknowledging writes. --memtable-mb sets the spill budget;
// --no-compaction disables the background folding of small sealed shards.
//
// --list-cache-mb enables the cross-query posting-list cache: hot pass-1
// lists stay decoded in memory across requests (bounded LRU, charged to
// the --server-memory-mb budget, invalidated when topology changes or a
// delta publish retires their source). Answers are bit-identical with the
// cache on or off; /v1/status reports its hit/miss/eviction counters.
//
// A request's deadline_ms (or X-Ndss-Deadline-Ms header) becomes its
// QueryContext deadline; memory_mb parents into --server-memory-mb;
// admission control rejects above --max-inflight. Outcomes map
// DeadlineExceeded/Cancelled/ResourceExhausted -> 504/499/429 with the
// partial SearchStats in the body. Serving runs against a self-healing
// ShardedSearcher, so a faulty shard degrades answers (degraded_shards in
// every response's stats) instead of failing them, and heals back.
//
// --port=0 picks an ephemeral port; --port-file writes the resolved port
// for scripts. --serve-seconds bounds the run (0 = until SIGINT/SIGTERM).

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <thread>

#include "ingest/ingester.h"
#include "net/http.h"
#include "net/serve.h"
#include "shard/sharded_searcher.h"
#include "tool_flags.h"

namespace {

std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  ndss::tools::Flags flags(argc, argv);
  const std::string set_dir = flags.GetString("set", "");
  if (set_dir.empty()) {
    ndss::tools::Die(
        "usage: ndss_serve --set=DIR [--port=0] [--threads=8] "
        "[--max-inflight=64] [--server-memory-mb=0] [--list-cache-mb=0] "
        "[--default-deadline-ms=0] [--theta=0.8] [--no-prefix-filter] "
        "[--long-list-threshold=4096] [--batch-threads=1] "
        "[--no-self-healing] [--port-file=PATH] [--serve-seconds=0] "
        "[--allow-debug-sleep] [--quiet] "
        "[--ingest] [--memtable-mb=8] [--no-compaction]");
  }
  const bool quiet = flags.GetBool("quiet", false);

  ndss::ShardedSearcherOptions searcher_options;
  searcher_options.enable_self_healing = !flags.GetBool("no-self-healing",
                                                        false);
  auto searcher = ndss::ShardedSearcher::Open(set_dir, searcher_options);
  if (!searcher.ok()) ndss::tools::Die(searcher.status().ToString());

  ndss::net::ServeOptions serve_options;
  serve_options.max_inflight =
      static_cast<size_t>(flags.GetInt("max-inflight", 64));
  serve_options.server_memory_bytes = static_cast<uint64_t>(
      flags.GetDouble("server-memory-mb", 0) * (1 << 20));
  serve_options.default_deadline_ms =
      flags.GetInt("default-deadline-ms", 0);
  serve_options.search.theta = flags.GetDouble("theta", 0.8);
  serve_options.search.use_prefix_filter =
      !flags.GetBool("no-prefix-filter", false);
  serve_options.search.long_list_threshold = static_cast<uint64_t>(
      flags.GetInt("long-list-threshold", 4096));
  serve_options.batch_threads =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("batch-threads",
                                                            1)));
  serve_options.allow_debug_sleep = flags.GetBool("allow-debug-sleep", false);
  ndss::net::SearchService service(&*searcher, serve_options);

  // Enable the cross-query list cache before the port binds (no request
  // ever races the enable) and parent it into the server-wide budget, so
  // cached lists and inflight query memory share one cap.
  const uint64_t list_cache_bytes =
      static_cast<uint64_t>(flags.GetDouble("list-cache-mb", 0) * (1 << 20));
  if (list_cache_bytes > 0) {
    const ndss::Status enabled =
        searcher->EnableListCache(list_cache_bytes, service.server_budget());
    if (!enabled.ok()) ndss::tools::Die(enabled.ToString());
  }

  ndss::net::HttpServerOptions server_options;
  server_options.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  server_options.num_threads =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("threads", 8)));
  ndss::net::HttpServer server;
  const ndss::Status started =
      server.Start(server_options, [&service](const ndss::net::HttpRequest&
                                                  request) {
        return service.Handle(request);
      });
  if (!started.ok()) ndss::tools::Die(started.ToString());

  const ndss::IndexMeta meta = searcher->meta();
  if (!quiet) {
    std::printf("ndss_serve: listening on 127.0.0.1:%u (epoch %llu, "
                "%zu shards, k=%u t=%u, %llu texts, max_inflight=%zu)\n",
                server.port(),
                static_cast<unsigned long long>(searcher->epoch()),
                searcher->shards().size(), meta.k, meta.t,
                static_cast<unsigned long long>(meta.num_texts),
                serve_options.max_inflight);
    std::fflush(stdout);
  }
  const std::string port_file = flags.GetString("port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << "\n";
    if (!out.good()) ndss::tools::Die("cannot write " + port_file);
  }

  // The write path opens after the port is bound so /v1/healthz can answer
  // ready=false during a potentially long WAL replay.
  std::unique_ptr<ndss::Ingester> ingester;
  if (flags.GetBool("ingest", false)) {
    service.set_wal_replaying(true);
    ndss::IngestOptions ingest_options;
    ingest_options.build.k = meta.k;
    ingest_options.build.seed = meta.seed;
    ingest_options.build.t = meta.t;
    ingest_options.build.sketch = meta.sketch;
    ingest_options.memtable_budget_bytes = static_cast<uint64_t>(
        flags.GetDouble("memtable-mb", 8) * (1 << 20));
    ingest_options.enable_compaction = !flags.GetBool("no-compaction", false);
    auto opened = ndss::Ingester::Open(&*searcher, ingest_options);
    if (!opened.ok()) ndss::tools::Die(opened.status().ToString());
    ingester = std::move(opened).value();
    service.set_ingester(ingester.get());
    service.set_wal_replaying(false);
    if (!quiet) {
      const ndss::IngestStats is = ingester->stats();
      std::printf("ndss_serve: ingestion open (replayed %llu docs, "
                  "applied_seqno=%llu, memtable %llu docs)\n",
                  static_cast<unsigned long long>(is.docs_replayed),
                  static_cast<unsigned long long>(is.applied_seqno),
                  static_cast<unsigned long long>(is.delta_docs));
      std::fflush(stdout);
    }
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  const int64_t serve_seconds = flags.GetInt("serve-seconds", 0);
  const auto start = std::chrono::steady_clock::now();
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (serve_seconds > 0 &&
        std::chrono::steady_clock::now() - start >=
            std::chrono::seconds(serve_seconds)) {
      break;
    }
  }
  server.Stop();
  if (ingester != nullptr) {
    // Commit anything staged and close the WAL; the memtable is replayed
    // from the WAL at the next --ingest start.
    service.set_ingester(nullptr);
    const ndss::Status closed = ingester->Close();
    if (!closed.ok() && !quiet) {
      std::printf("ndss_serve: ingester close: %s\n",
                  closed.ToString().c_str());
    }
  }

  const ndss::net::ServeCounters counters = service.counters();
  if (!quiet) {
    std::printf("ndss_serve: exiting (requests=%llu ok=%llu admission=%llu "
                "deadline=%llu cancelled=%llu resource=%llu invalid=%llu "
                "failed=%llu ingests=%llu docs_ingested=%llu)\n",
                static_cast<unsigned long long>(counters.requests),
                static_cast<unsigned long long>(counters.searches_ok),
                static_cast<unsigned long long>(counters.rejected_admission),
                static_cast<unsigned long long>(counters.deadline_exceeded),
                static_cast<unsigned long long>(counters.cancelled),
                static_cast<unsigned long long>(counters.resource_exhausted),
                static_cast<unsigned long long>(counters.invalid),
                static_cast<unsigned long long>(counters.failed),
                static_cast<unsigned long long>(counters.ingests_ok),
                static_cast<unsigned long long>(counters.docs_ingested));
  }
  return 0;
}
