// The traced run's replay: sampled requests are sent again one at a time to
// the idle server, then re-run in process around the library's public
// calls, recording one span per layer boundary. Spans live in memory and
// are written out when the replay ends; per-layer times are self times
// derived from them.

#ifndef NDSS_BENCH_REPLAY_H_
#define NDSS_BENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "text/corpus.h"
#include "text/types.h"

namespace ndss_bench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  uint32_t request = 0;
};

/// In-memory span recorder. Not thread-safe: the replay is sequential.
class Tracer {
 public:
  Tracer();

  /// Opens a span under `parent` for the current request; returns its id.
  int32_t Begin(const char* name, int32_t parent);
  void End(int32_t id);

  void set_request(uint32_t request) { request_ = request; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span in ms: its duration minus its children's.
  std::vector<double> SelfMs() const;

  bool Write(const std::string& path) const;

 private:
  int64_t Now() const;

  int64_t epoch_ns_ = 0;
  uint32_t request_ = 0;
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer& tracer, const char* name, int32_t parent)
      : tracer_(tracer), id_(tracer.Begin(name, parent)) {}
  ~Scoped() { tracer_.End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const int32_t id_;
};

/// A shard of the served topology, as /v1/shards reports it.
struct ShardRef {
  std::string dir;
  ndss::TextId offset = 0;
  uint64_t texts = 0;
};

struct ReplayConfig {
  uint16_t port = 0;
  std::string set_dir;
  std::vector<ShardRef> shards;
  uint32_t k = 0;
  uint32_t t = 0;
  uint64_t index_seed = 0;
  double theta = 0;
  /// Served answers are compared on texts below this id only (texts of an
  /// ingest memtable are not in the shard files the replay reads).
  ndss::TextId text_limit = 0;
};

/// Per-layer numbers of one replay: stage name -> per-request ms (summed
/// over shards), plus the checks.
struct ReplayReport {
  std::map<std::string, std::vector<double>> stage_ms;
  /// Sum of replayed stage self times / sum of per-shard Searcher::Search
  /// times, over all requests.
  double coverage = 0;
  /// Requests whose replayed spans and rectangles differ from the served.
  uint64_t mismatches = 0;
  /// Requests the server did not answer with 200.
  uint64_t failed = 0;
};

/// Replays `queries` (each sent once over HTTP, then in process). Returns
/// false when the shard files cannot be opened.
bool Replay(const ReplayConfig& config,
            const std::vector<std::vector<ndss::Token>>& queries,
            Tracer& tracer, ReplayReport* report);

/// Times the ingest path's two costs in process over texts of `docs`:
/// WalWriter Append + Sync of `batch` documents, and a Searcher::InMemory
/// rebuild over `delta_docs` documents (a memtable's worth). Writes the WAL
/// under `dir`.
bool ReplayIngest(const std::string& dir, const ndss::Corpus& docs,
                  size_t batch, size_t delta_docs, uint32_t k, uint32_t t,
                  uint64_t index_seed, Tracer& tracer, ReplayReport* report);

}  // namespace ndss_bench

#endif  // NDSS_BENCH_REPLAY_H_
