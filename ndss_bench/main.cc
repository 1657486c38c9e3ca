// ndss_bench: the seeded end-to-end benchmark of ndss_serve.
//
//   ndss_bench --workload=W --seed=S [--seconds=15] [--trace=PATH]
//              [--out=PATH] [--work=DIR] [--smoke]
//
// For the workload W it generates its inputs from S, stands the program up
// through the CLI tools exactly as an operator would (ndss_build per shard,
// ndss_shard, ndss_serve; ndss_ingest for the streaming set), drives the
// server over HTTP from this process with at most four connections, checks
// every answer off the clock, and prints every metric as
// `metric <name> <value> <unit>`. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end metrics,
// or, with --trace, the per-layer metrics of a replay whose spans are
// written to PATH. See README.md for the workloads and the metric map.
//
// Exit status: 0 when every gate passes, 1 otherwise (including a timed
// window too short for one block of latency samples), 2 on a usage or
// set-up error.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "answers.h"
#include "baseline/brute_force.h"
#include "index/index_builder.h"
#include "inputs.h"
#include "load.h"
#include "net/json.h"
#include "process.h"
#include "query/searcher.h"
#include "replay.h"
#include "shard/sharded_searcher.h"
#include "sketch/sketch_scheme.h"
#include "text/corpus_file.h"

#ifndef NDSS_BENCH_TOOLS_DIR
#error "NDSS_BENCH_TOOLS_DIR must name the directory of the ndss tools"
#endif

namespace ndss_bench {
namespace {

namespace fs = std::filesystem;
using ndss::net::JsonValue;

// ---- Fixed settings. Changing any of them changes the benchmark. ----

// Index and query parameters shared by every workload (the paper's
// settings at this scale).
constexpr uint32_t kK = 32;
constexpr uint32_t kT = 25;
constexpr double kTheta = 0.8;
constexpr uint64_t kIndexSeed = 0x5eed5eed5eed5eedULL;

// The corpora are drawn from this fixed seed; --seed draws everything sent
// to the server (probes, model outputs, request order). Which posting lists
// of a 1000-text shard cross long_list_threshold depends on the corpus, and
// across corpora drawn from different seeds it moved the work per query by
// up to 11%; over one corpus the probe pools of different seeds agree within
// about 1%.
constexpr uint64_t kCorpusSeed = 0xc0b905c0b905ULL;

constexpr uint32_t kProbeLength = 64;
constexpr double kProbeNoise = 0.05;

// Every workload stands the program up this many times and reports the
// median set-up time; the last server is the one measured.
constexpr int kSetupRuns = 3;

// Share of --seconds spent warming up (untimed).
constexpr double kWarmupShare = 0.1;
// All traffic is closed loops at a fixed number of connections, which keep
// the machine's four cores busy; latency and throughput are both read from
// them. On a shared 4-core box whose cores each slow by 30-50% for seconds
// at a time, a loaded closed loop spread about 0.09 (quartile distance over
// median) between runs, against 0.15-0.25 for one connection, whose every
// request waits for the slowest of the cores its shard searches landed on,
// and 0.12-0.41 for an open loop at 40% of capacity, which also queued the
// requests behind every slow spell.
constexpr size_t kServeConnections = 4;
constexpr size_t kBatchConnections = 2;
constexpr size_t kIngestReadConnections = 3;

// The list cache of serve_hot and ingest_mixed, which holds serve_hot's
// whole decoded working set (about 36 MB), and serve_cold's, which holds a
// small part of its working set, so that most lookups miss.
constexpr const char* kListCacheMb = "48";
constexpr const char* kColdListCacheMb = "4";
// Hit ratios over the timed window that keep the two serve workloads on
// either side of the cache (measured on a 4-core box: about 0.997 with no
// evictions, and about 0.12).
constexpr double kHotHitRatio = 0.98;
constexpr double kColdHitRatio = 0.5;

constexpr size_t kDocsPerIngest = 8;
// Acks a run needs for its ack p90 to have ten beyond it.
constexpr size_t kMinAcks = 100;
// ingest_mixed's memtable: small enough to spill every few commits, with a
// compaction every few spills, so every latency block sees the same mix of
// background work.
constexpr const char* kMemtableMb = "1";
constexpr double kReadYourWritesShare = 0.2;

constexpr size_t kReplayRequests = 500;
constexpr size_t kOracleQueries = 16;

// Latency percentiles are taken per block of this many consecutive sends
// (the nearest-rank p90 of a block has ten sends beyond it), and closed-loop
// rates per this many blocks of replies; the median across blocks is
// reported. On a shared box whose speed swings by tens of percent for
// seconds at a time, the median over many short blocks keeps such a spell
// from moving the result unless it covers half the phase.
constexpr size_t kLatencyBlock = 100;
constexpr size_t kRateBlocks = 40;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  std::string trace;
  std::string out;
  std::string work = ".bench_run";
  bool smoke = false;
};

// ---- Metrics and outcome accounting ----

struct Metric {
  double value = 0;
  std::string unit;
};

struct Context {
  Options options;
  std::string work;  ///< absolute work directory of this run
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> gate_failures;
  Tracer tracer;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
    std::printf("metric %s %.6g %s\n", name.c_str(), value, unit.c_str());
  }
  void Gate(bool ok, const std::string& what) {
    std::printf("gate %s: %s\n", ok ? "ok" : "FAILED", what.c_str());
    if (!ok) gate_failures.push_back(what);
  }
};

std::string Tool(const char* name) {
  return std::string(NDSS_BENCH_TOOLS_DIR) + "/" + name;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / values.size();
}

uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) {
  Rng rng(a ^ (b * 0x9e3779b97f4a7c15ULL) ^ (c * 0xc2b2ae3d27d4eb4fULL));
  return rng.Next();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const uint64_t size = it->file_size(size_ec);
      if (!size_ec) bytes += size;
    }
  }
  return bytes;
}

bool WriteCorpus(const std::string& path, const ndss::Corpus& corpus) {
  auto writer = ndss::CorpusFileWriter::Create(path);
  if (!writer.ok()) return false;
  return writer->AppendCorpus(corpus).ok() && writer->Finish().ok();
}

/// Parses a JSON reply body; null on failure.
std::unique_ptr<JsonValue> ParseBody(const std::string& body) {
  auto parsed = ndss::net::ParseJson(body);
  if (!parsed.ok()) return nullptr;
  return std::make_unique<JsonValue>(std::move(*parsed));
}

double Field(const JsonValue& object, const char* name) {
  const JsonValue* value = object.Find(name);
  return value != nullptr && value->is_number() ? value->number() : 0;
}

// ---- Standing the program up ----

struct Server {
  Process process;
  uint16_t port = 0;
  std::string set_dir;
};

/// Starts ndss_serve on `set_dir` and waits for /v1/healthz to answer 200.
bool StartServer(const std::string& dir, const std::string& set_dir,
                 const std::vector<std::string>& flags, Server* server) {
  const std::string port_file = dir + "/port";
  std::vector<std::string> args = {"--set=" + set_dir, "--port=0",
                                   "--port-file=" + port_file, "--threads=4",
                                   "--quiet"};
  args.insert(args.end(), flags.begin(), flags.end());
  server->set_dir = set_dir;
  server->process =
      Process::Start(Tool("ndss_serve"), args, dir + "/serve.log");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(port_file);
    unsigned port = 0;
    if (in >> port && port > 0) {
      server->port = static_cast<uint16_t>(port);
      if (Fetch(server->port, "GET", "/v1/healthz").status == 200) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::cerr << "ndss_bench: ndss_serve did not become healthy\n";
  return false;
}

std::vector<std::string> BuildArgs(const std::string& corpus,
                                   const std::string& index) {
  return {"--corpus=" + corpus, "--index=" + index,
          "--k=" + std::to_string(kK), "--t=" + std::to_string(kT),
          "--seed=" + std::to_string(kIndexSeed), "--compress",
          "--threads=4"};
}

/// Stands the program up `kSetupRuns` times with `setup(dir, server)`,
/// reports the median time as setup_s, and keeps the last server.
bool RepeatSetup(Context& ctx,
                 const std::function<bool(const std::string&, Server*)>& setup,
                 Server* server) {
  std::vector<double> seconds;
  for (int run = 0; run < kSetupRuns; ++run) {
    const std::string dir = ctx.work + "/setup" + std::to_string(run);
    fs::create_directories(dir);
    Server attempt;
    const auto start = std::chrono::steady_clock::now();
    if (!setup(dir, &attempt)) return false;
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    if (run + 1 < kSetupRuns) {
      attempt.process.Stop();
      fs::remove_all(dir);
    } else {
      *server = std::move(attempt);
    }
  }
  ctx.Add("setup_s", Median(seconds), "s");
  return true;
}

/// Builds every shard corpus with ndss_build, creates the set with
/// ndss_shard (absolute shard dirs) and serves it.
bool SetupShardSet(const std::vector<std::string>& corpora,
                   const std::vector<std::string>& serve_flags,
                   const std::string& dir, Server* server) {
  std::vector<std::string> create = {"create", "--set=" + dir + "/set"};
  for (size_t s = 0; s < corpora.size(); ++s) {
    const std::string index = dir + "/shard" + std::to_string(s);
    if (!RunTool(Tool("ndss_build"), BuildArgs(corpora[s], index),
                 dir + "/build.log")) {
      return false;
    }
    create.push_back(index);
  }
  return RunTool(Tool("ndss_shard"), create, dir + "/shard.log") &&
         StartServer(dir, dir + "/set", serve_flags, server);
}

/// A streamable genesis set (ndss_ingest --create) with one preloaded
/// shard attached, served with ingestion on.
bool SetupIngestSet(const std::string& preload_corpus,
                    const std::vector<std::string>& serve_flags,
                    const std::string& dir, Server* server) {
  const std::string set = dir + "/set";
  const std::string preload = dir + "/preload";
  return RunTool(Tool("ndss_ingest"),
                 {"--create", "--set=" + set, "--k=" + std::to_string(kK),
                  "--t=" + std::to_string(kT),
                  "--seed=" + std::to_string(kIndexSeed), "--quiet"},
                 dir + "/ingest.log") &&
         RunTool(Tool("ndss_build"), BuildArgs(preload_corpus, preload),
                 dir + "/build.log") &&
         RunTool(Tool("ndss_shard"), {"attach", "--set=" + set, preload},
                 dir + "/shard.log") &&
         StartServer(dir, set, serve_flags, server);
}

/// The topology as /v1/shards reports it.
struct Topology {
  double epoch = -1;
  std::vector<ShardRef> shards;
};

Topology ServedTopology(uint16_t port) {
  Topology topology;
  std::unique_ptr<JsonValue> body =
      ParseBody(Fetch(port, "GET", "/v1/shards").body);
  const JsonValue* list = body ? body->Find("shards") : nullptr;
  if (list == nullptr || !list->is_array()) return topology;
  topology.epoch = Field(*body, "epoch");
  for (const JsonValue& entry : list->array()) {
    const JsonValue* dir = entry.Find("dir");
    if (dir == nullptr || !dir->is_string()) continue;
    topology.shards.push_back(
        {dir->string_value(),
         static_cast<ndss::TextId>(Field(entry, "text_offset")),
         static_cast<uint64_t>(Field(entry, "num_texts"))});
  }
  return topology;
}

/// The served shards once background compaction has settled, and their
/// index file bytes. The epoch must hold still for half a second before the
/// directories are measured and stay the same while they are, so that no
/// merge retires a directory that is being read (a merge that commits
/// meanwhile sends the wait round again).
struct Settled {
  std::vector<ShardRef> shards;
  uint64_t bytes = 0;
  bool stable = false;  ///< false when the epoch never held for 30 s
};

Settled SettledShards(uint16_t port) {
  Topology last = ServedTopology(port);
  Settled settled;
  for (int poll = 0; poll < 60; ++poll) {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    Topology now = ServedTopology(port);
    if (now.epoch == last.epoch) {
      settled.shards = now.shards;
      settled.bytes = 0;
      for (const ShardRef& shard : now.shards) {
        settled.bytes += DirBytes(shard.dir);
      }
      settled.stable = ServedTopology(port).epoch == now.epoch;
      if (settled.stable) return settled;
    }
    last = std::move(now);
  }
  return settled;
}

/// list_cache counters and shard count from /v1/status.
struct StatusSnapshot {
  double hits = 0;
  double misses = 0;
  double evictions = 0;
  double shards = 0;
};

StatusSnapshot ReadStatus(uint16_t port) {
  StatusSnapshot snapshot;
  std::unique_ptr<JsonValue> body =
      ParseBody(Fetch(port, "GET", "/v1/status").body);
  if (body == nullptr) return snapshot;
  snapshot.shards = Field(*body, "num_shards");
  if (const JsonValue* cache = body->Find("list_cache")) {
    snapshot.hits = Field(*cache, "hits");
    snapshot.misses = Field(*cache, "misses");
    snapshot.evictions = Field(*cache, "evictions");
  }
  return snapshot;
}

// ---- Measuring ----

/// Per-query SearchStats folded over served answers.
struct ServedStats {
  std::vector<double> wall_ms;
  double io_bytes = 0;
  double short_lists = 0;
  double long_lists = 0;
  double windows_scanned = 0;
  double candidate_texts = 0;
  double cache_hits = 0;
  uint64_t queries = 0;

  void Add(const JsonValue& answer) {
    wall_ms.push_back(Stat(answer, "wall_seconds") * 1000.0);
    io_bytes += Stat(answer, "io_bytes");
    short_lists += Stat(answer, "short_lists");
    long_lists += Stat(answer, "long_lists");
    windows_scanned += Stat(answer, "windows_scanned");
    candidate_texts += Stat(answer, "candidate_texts");
    cache_hits += Stat(answer, "cache_hits");
    ++queries;
  }
};

/// Counts a phase's outcomes into attempted / failed.
void Count(Context& ctx, const Phase& phase) {
  ctx.attempted += phase.outcomes.size();
  for (const Outcome& outcome : phase.outcomes) {
    if (outcome.status < 200 || outcome.status > 299) ++ctx.failed;
  }
}

/// Latencies of `phase`, a failed request counting as infinitely slow (it
/// misses any latency limit).
std::vector<double> Latencies(const Phase& phase) {
  std::vector<double> ms;
  for (const Outcome& outcome : phase.outcomes) {
    ms.push_back(outcome.status == 200 ? outcome.latency_ms : INFINITY);
  }
  return ms;
}

/// Reports latency_p50_ms and latency_p90_ms of `phase`, each the median
/// over blocks of kLatencyBlock consecutive sends of the block's
/// percentile. A phase without one full block fails the run rather than
/// report a tail it cannot show; a smoke run, which checks answers only,
/// takes all sends as one block however few they are.
void AddLatency(Context& ctx, const Phase& phase) {
  const std::vector<double> ms = Latencies(phase);
  const size_t size =
      ctx.options.smoke ? std::max<size_t>(1, ms.size()) : kLatencyBlock;
  std::vector<double> p50;
  std::vector<double> p90;
  for (size_t at = 0; at + size <= ms.size(); at += size) {
    const std::vector<double> block(ms.begin() + at, ms.begin() + at + size);
    p50.push_back(Percentile(block, 0.5));
    p90.push_back(Percentile(block, 0.9));
  }
  ctx.Gate(!p90.empty(), std::to_string(ms.size()) + " latency samples in " +
                             std::to_string(p90.size()) + " blocks");
  if (p90.empty()) return;
  ctx.Add("latency_p50_ms", Median(p50), "ms");
  ctx.Add("latency_p90_ms", Median(p90), "ms");
}

/// Work completed per second by a closed-loop phase. Its replies, in
/// arrival order, are cut into `blocks` equal blocks; each block's work is
/// divided by the time its replies took to arrive, and the median across
/// blocks is reported.
double BlockRate(const Phase& phase, size_t blocks,
                 const std::function<double(const Outcome&)>& work) {
  std::vector<const Outcome*> order;
  for (const Outcome& outcome : phase.outcomes) order.push_back(&outcome);
  std::sort(order.begin(), order.end(),
            [](const Outcome* a, const Outcome* b) {
              return a->done_ms < b->done_ms;
            });
  std::vector<double> rates;
  double since_ms = 0;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t from = b * order.size() / blocks;
    const size_t to = (b + 1) * order.size() / blocks;
    if (to == from) continue;
    double done = 0;
    for (size_t i = from; i < to; ++i) done += work(*order[i]);
    const double until_ms = order[to - 1]->done_ms;
    if (until_ms > since_ms) {
      rates.push_back(done * 1000 / (until_ms - since_ms));
    }
    since_ms = until_ms;
  }
  return Median(rates);
}

/// The per-layer metrics read from outside on every run.
void AddOutsideLayers(Context& ctx, const Phase& timed,
                      const ServedStats& stats, const StatusSnapshot& before,
                      const StatusSnapshot& after) {
  std::vector<double> lag;
  double request_bytes = 0;
  double response_bytes = 0;
  for (const Outcome& outcome : timed.outcomes) {
    lag.push_back(outcome.lag_ms);
    request_bytes += outcome.request_bytes;
    response_bytes += outcome.response_bytes;
  }
  const size_t requests = timed.outcomes.size();
  const double n = std::max<double>(1, stats.queries);
  ctx.Add("net.sender_lag_p99_ms", Percentile(lag, 0.99),
          "ms");
  ctx.Add("net.request_bytes", request_bytes / std::max<size_t>(1, requests),
          "bytes");
  ctx.Add("net.response_bytes", response_bytes / std::max<size_t>(1, requests),
          "bytes");
  ctx.Add("shard.search_ms", Median(stats.wall_ms), "ms");
  ctx.Add("shard.count", after.shards, "count");
  ctx.Add("index.io_bytes", stats.io_bytes / n, "bytes");
  ctx.Add("index.short_lists", stats.short_lists / n, "count");
  ctx.Add("index.long_lists", stats.long_lists / n, "count");
  ctx.Add("query.windows_scanned", stats.windows_scanned / n, "count");
  ctx.Add("query.candidate_texts", stats.candidate_texts / n, "count");
  ctx.Add("query.batch_cache_hit_ratio",
          stats.short_lists > 0 ? stats.cache_hits / stats.short_lists : 0,
          "ratio");
  const double lookups =
      (after.hits - before.hits) + (after.misses - before.misses);
  ctx.Add("query.list_cache_hit_ratio",
          lookups > 0 ? (after.hits - before.hits) / lookups : 0, "ratio");
  ctx.Add("query.list_cache_evictions", after.evictions - before.evictions,
          "count");
}

/// The ingest metrics of a workload that sends no writes.
void AddNoWrites(Context& ctx) {
  ctx.Add("ingest.ack_p50_ms", 0, "ms");
  ctx.Add("ingest.ack_p90_ms", 0, "ms");
  ctx.Add("ingest.spills", 0, "count");
  ctx.Add("ingest.compactions", 0, "count");
  ctx.Add("ingest.delta_docs", 0, "count");
}

/// Index file bytes of the settled topology per token it holds.
void AddIndexBytes(Context& ctx, const Settled& settled, double tokens) {
  ctx.Gate(settled.stable && settled.bytes > 0 && tokens > 0,
           std::to_string(settled.shards.size()) + " shards measured " +
               (settled.stable ? "settled" : "NOT settled") + ", " +
               std::to_string(settled.bytes) + " index bytes");
  ctx.Add("index_bytes_per_token", tokens > 0 ? settled.bytes / tokens : 0,
          "B/token");
}

// ---- Correctness gates (off the clock) ----

/// Runs fn(i) for every i in [0, n) on four threads.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (std::thread& worker : workers) worker.join();
}

/// Served canonical answers, each with the index of the query it answers.
using Served = std::vector<std::pair<size_t, std::string>>;

/// In-process canonical answer of every query index in `served`, each
/// distinct query searched once, four threads.
std::map<size_t, std::string> ExpectedAnswers(
    const Served& served,
    const std::function<std::span<const ndss::Token>(size_t)>& query,
    const std::function<ndss::Result<ndss::SearchResult>(
        std::span<const ndss::Token>)>& search) {
  std::vector<size_t> indices;
  for (const auto& [index, key] : served) indices.push_back(index);
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  std::vector<std::string> keys(indices.size());
  ParallelFor(indices.size(), [&](size_t i) {
    auto result = search(query(indices[i]));
    keys[i] = result.ok() ? AnswerKey(*result) : "error";
  });
  std::map<size_t, std::string> expected;
  for (size_t i = 0; i < indices.size(); ++i) {
    expected.emplace(indices[i], std::move(keys[i]));
  }
  return expected;
}

size_t CountMismatches(const Served& served,
                       const std::map<size_t, std::string>& expected) {
  size_t mismatches = 0;
  for (const auto& [index, key] : served) {
    mismatches += key != expected.at(index);
  }
  return mismatches;
}

ndss::SearchOptions QueryOptions() {
  ndss::SearchOptions options;
  options.theta = kTheta;
  return options;
}

/// Brute-force Definition 2 over the query's source text plus every text
/// of its answer must find exactly the sequences the answer's rectangles
/// cover. Independent of the serving stack.
bool OracleAgrees(const ndss::Corpus& corpus, const Probe& probe,
                  const ndss::SearchResult& answer) {
  using Key = std::tuple<ndss::TextId, uint32_t, uint32_t>;
  std::set<ndss::TextId> texts = {probe.text};
  for (const ndss::MatchSpan& span : answer.spans) texts.insert(span.text);
  ndss::Corpus subset;
  std::vector<ndss::TextId> ids(texts.begin(), texts.end());
  for (ndss::TextId id : ids) subset.AddText(corpus.text(id));
  const ndss::SketchScheme scheme(ndss::SketchSchemeId::kIndependent, kK,
                                  kIndexSeed);
  std::set<Key> expected;
  for (const ndss::BaselineMatch& m : ndss::BruteForceApproxSearch(
           subset, scheme, probe.tokens, kTheta, kT)) {
    expected.insert({ids[m.text], m.begin, m.end});
  }
  std::set<Key> got;
  for (const ndss::TextMatchRectangle& tr : answer.rectangles) {
    for (uint32_t i = tr.rect.x_begin; i <= tr.rect.x_end; ++i) {
      for (uint32_t j = std::max(tr.rect.y_begin, i + kT - 1);
           j <= tr.rect.y_end; ++j) {
        got.insert({tr.text, i, j});
      }
    }
  }
  return got == expected;
}

/// Runs the brute-force oracle on up to kOracleQueries probes with small
/// answers (at most four texts), four threads.
void OracleGate(Context& ctx, const ndss::Corpus& corpus,
                const std::vector<Probe>& probes,
                ndss::ShardedSearcher& searcher) {
  std::vector<size_t> picked;
  std::vector<ndss::SearchResult> answers;
  Rng rng(Mix(ctx.options.seed, 7, 0));
  for (size_t tries = 0; tries < 20 * kOracleQueries &&
                         picked.size() < kOracleQueries;
       ++tries) {
    const size_t i = rng.Uniform(probes.size());
    auto answer = searcher.Search(probes[i].tokens, QueryOptions());
    std::set<ndss::TextId> texts;
    if (answer.ok()) {
      for (const auto& span : answer->spans) texts.insert(span.text);
    }
    if (!answer.ok() || texts.size() > 4) continue;
    picked.push_back(i);
    answers.push_back(std::move(*answer));
  }
  std::atomic<size_t> disagreements{0};
  ParallelFor(picked.size(), [&](size_t i) {
    if (!OracleAgrees(corpus, probes[picked[i]], answers[i])) ++disagreements;
  });
  ctx.failed += disagreements;
  ctx.Gate(picked.size() == kOracleQueries && disagreements == 0,
           std::to_string(picked.size()) +
               " brute-force oracle queries, " +
               std::to_string(disagreements.load()) + " disagreements");
}

// ---- The traced replay ----

/// Replays `queries` on the idle server over its settled `shards` and
/// reports the span-derived per-layer metrics, then the in-process build
/// and ingest costs.
bool TraceLayers(Context& ctx, const Server& server,
                 const std::vector<ShardRef>& shards,
                 const std::vector<std::vector<ndss::Token>>& queries,
                 const ndss::Corpus& rebuild_corpus, const ndss::Corpus& docs) {
  ReplayConfig config;
  config.port = server.port;
  config.set_dir = server.set_dir;
  config.k = kK;
  config.t = kT;
  config.index_seed = kIndexSeed;
  config.theta = kTheta;
  // A memtable of kMemtableMb holds about 40 docs; the rebuild replays one
  // about half full, its average over a fill.
  constexpr size_t kDeltaDocs = 20;
  ReplayReport report;
  // A merge that commits after the topology looked settled retires shard
  // directories before the replay opens them (Replay fails before it records
  // a span); settle again and retry.
  bool replayed = false;
  for (int attempt = 0; attempt < 5 && !replayed; ++attempt) {
    config.shards =
        attempt == 0 ? shards : SettledShards(server.port).shards;
    config.text_limit = 0;
    for (const ShardRef& shard : config.shards) {
      config.text_limit += shard.texts;
    }
    replayed = Replay(config, queries, ctx.tracer, &report);
  }
  if (!replayed ||
      !ReplayIngest(ctx.work + "/replay", docs, kDocsPerIngest, kDeltaDocs, kK,
                    kT, kIndexSeed, ctx.tracer, &report)) {
    std::cerr << "ndss_bench: replay could not open the served files\n";
    return false;
  }
  ctx.failed += report.failed + report.mismatches;
  ctx.attempted += queries.size();
  for (const char* stage :
       {"net.server_overhead", "net.parse", "net.serialize", "shard.gather",
        "sketch.query", "index.list_fetch", "index.zone_probe", "query.group",
        "query.collision_count", "query.merge", "ingest.wal_sync",
        "ingest.delta_rebuild"}) {
    ctx.Add(std::string(stage) + "_ms", Median(report.stage_ms[stage]), "ms");
  }
  ctx.Add("trace.replay_coverage", report.coverage, "ratio");
  ctx.Add("trace.replay_mismatches", static_cast<double>(report.mismatches),
          "count");

  // An in-process rebuild of shard 0 splits set-up into its build stages.
  std::vector<double> generate, sort, write;
  ndss::IndexBuildOptions build;
  build.k = kK;
  build.t = kT;
  build.seed = kIndexSeed;
  build.posting_format = ndss::index_format::kFormatCompressed;
  build.num_threads = 4;
  for (int run = 0; run < 3; ++run) {
    auto stats = ndss::BuildIndexInMemory(rebuild_corpus,
                                          ctx.work + "/rebuild", build);
    if (!stats.ok()) return false;
    generate.push_back(stats->generate_seconds);
    sort.push_back(stats->sort_seconds);
    write.push_back(stats->io_seconds);
  }
  ctx.Add("index.build_generate_s", Median(generate), "s");
  ctx.Add("index.build_sort_s", Median(sort), "s");
  ctx.Add("index.build_write_s", Median(write), "s");
  return ctx.tracer.Write(ctx.options.trace);
}

std::vector<std::vector<ndss::Token>> SampleQueries(
    const Context& ctx, const std::vector<std::vector<ndss::Token>>& sent) {
  std::vector<std::vector<ndss::Token>> sample;
  Rng rng(Mix(ctx.options.seed, 11, 0));
  const size_t n = ctx.options.smoke ? 50 : kReplayRequests;
  for (size_t i = 0; i < n && !sent.empty(); ++i) {
    sample.push_back(sent[rng.Uniform(sent.size())]);
  }
  return sample;
}

// ---- Workloads ----

/// Corpus texts of the serve and batch workloads, and of ingest's preload.
uint32_t CorpusTexts(const Context& ctx, uint32_t full) {
  return ctx.options.smoke ? full / 10 : full;
}

std::vector<ndss::Token> ToVector(std::span<const ndss::Token> tokens) {
  return std::vector<ndss::Token>(tokens.begin(), tokens.end());
}

/// serve_hot / serve_cold: 4 shards behind one ndss_serve, 64-token probes,
/// a closed loop at kServeConnections.
bool RunServe(Context& ctx, bool hot, Digest& digest) {
  Rng corpus_rng(kCorpusSeed);
  CorpusShape shape;
  shape.texts = CorpusTexts(ctx, 4000);
  const ndss::Corpus corpus = GenerateCorpus(shape, corpus_rng);
  const Zipf vocab(shape.vocab, shape.zipf_s);
  Rng rng(ctx.options.seed);
  // Every timed request draws a pool entry uniformly. serve_hot's 1024
  // probes repeat often enough for their decoded lists to stay in the list
  // cache; serve_cold's 4096 come round again only after thousands of
  // other requests have cycled its small cache.
  const size_t pool_size = (hot ? 1024 : 4096) / (ctx.options.smoke ? 10 : 1);
  std::vector<Probe> pool;
  for (size_t i = 0; i < pool_size; ++i) {
    pool.push_back(MakeProbe(corpus, kProbeLength, kProbeNoise, vocab, rng));
  }
  digest.Add(corpus);
  for (const Probe& probe : pool) digest.Add(probe.tokens);

  constexpr size_t kShards = 4;
  std::vector<ndss::Corpus> shard_corpora(kShards);
  std::vector<std::string> corpora;
  for (size_t s = 0; s < kShards; ++s) {
    for (size_t i = s * corpus.num_texts() / kShards;
         i < (s + 1) * corpus.num_texts() / kShards; ++i) {
      shard_corpora[s].AddText(corpus.text(i));
    }
    corpora.push_back(ctx.work + "/shard" + std::to_string(s) + ".crp");
    if (!WriteCorpus(corpora.back(), shard_corpora[s])) return false;
  }
  Server server;
  const std::string cache_mb = hot ? kListCacheMb : kColdListCacheMb;
  if (!RepeatSetup(ctx,
                   [&](const std::string& dir, Server* out) {
                     return SetupShardSet(corpora,
                                          {"--list-cache-mb=" + cache_mb},
                                          dir, out);
                   },
                   &server)) {
    return false;
  }

  // Request i of phase p asks pool[pick(p, i)]. Phase 0 is the warmup,
  // which walks the pool in order; on serve_hot it walks all of it, however
  // short --seconds is, so that the cache holds the pool before timing.
  // Phase 1 is the timed window.
  std::vector<std::string> bodies;
  for (const Probe& probe : pool) bodies.push_back(SearchBody(probe.tokens));
  auto pick = [&](uint64_t phase, uint64_t i) -> size_t {
    if (phase == 0) return i % pool.size();
    Rng r(Mix(ctx.options.seed, phase, i));
    return r.Uniform(pool.size());
  };
  auto maker = [&](uint64_t phase) {
    return [&, phase](uint64_t i) {
      return Request{"/v1/search", bodies[pick(phase, i)]};
    };
  };
  const double seconds = ctx.options.seconds;
  const Phase warmup =
      RunClosedLoop(server.port, kServeConnections, kWarmupShare * seconds,
                    maker(0), nullptr, hot ? pool.size() : 0);
  const StatusSnapshot before = ReadStatus(server.port);
  const Phase timed =
      RunClosedLoop(server.port, kServeConnections, seconds, maker(1));
  const StatusSnapshot after = ReadStatus(server.port);
  const Settled settled = SettledShards(server.port);
  const std::vector<ShardRef>& shards = settled.shards;
  const double rss = PeakRssMb(server.process.pid());

  // Parse every answer off the clock.
  ServedStats stats;
  Served served;  // by pool index
  std::vector<std::vector<ndss::Token>> sent;
  for (const auto& [phase, id] :
       {std::pair(&warmup, 0), std::pair(&timed, 1)}) {
    Count(ctx, *phase);
    for (const Outcome& outcome : phase->outcomes) {
      if (id != 0) sent.push_back(pool[pick(id, outcome.index)].tokens);
      if (outcome.status != 200) continue;
      std::unique_ptr<JsonValue> answer = ParseBody(outcome.body);
      if (answer == nullptr) {
        ++ctx.failed;
        continue;
      }
      if (id != 0) stats.Add(*answer);
      served.emplace_back(pick(id, outcome.index), AnswerKey(*answer));
    }
  }

  AddLatency(ctx, timed);
  ctx.Add("throughput_per_s",
          BlockRate(timed, kRateBlocks,
                    [](const Outcome& o) { return o.status == 200; }),
          "1/s");
  AddIndexBytes(ctx, settled, static_cast<double>(corpus.total_tokens()));
  ctx.Add("peak_rss_mb", rss, "MB");
  AddOutsideLayers(ctx, timed, stats, before, after);
  AddNoWrites(ctx);

  // The traffic gates: serve_hot's working set stays in the list cache,
  // serve_cold's misses it, so that the two sit on either side of it.
  const double hit_ratio = ctx.metrics["query.list_cache_hit_ratio"].value;
  const double evictions = ctx.metrics["query.list_cache_evictions"].value;
  if (!ctx.options.smoke) {
    ctx.Gate(hot ? hit_ratio >= kHotHitRatio && evictions == 0
                 : hit_ratio <= kColdHitRatio,
             "list cache hit ratio " + std::to_string(hit_ratio) + ", " +
                 std::to_string(static_cast<uint64_t>(evictions)) +
                 " evictions");
  }

  if (!ctx.options.trace.empty()) {
    if (!TraceLayers(ctx, server, shards, SampleQueries(ctx, sent),
                     shard_corpora[0], corpus)) {
      return false;
    }
  }
  server.process.Stop();

  // Gate: every 200 answer equals the in-process ShardedSearcher answer.
  auto searcher = ndss::ShardedSearcher::Open(server.set_dir);
  if (!searcher.ok()) return false;
  const size_t mismatches = CountMismatches(
      served, ExpectedAnswers(
                  served,
                  [&](size_t i) {
            return std::span<const ndss::Token>(pool[i].tokens);
          },
                  [&](std::span<const ndss::Token> q) {
                    return searcher->Search(q, QueryOptions());
                  }));
  ctx.failed += mismatches;
  ctx.Gate(mismatches == 0,
           std::to_string(served.size()) + " served answers vs in-process, " +
               std::to_string(mismatches) + " mismatches");
  OracleGate(ctx, corpus, pool, *searcher);
  return true;
}

/// batch_memorization: the Section 5 evaluation. Each model output is cut
/// into its 16 non-overlapping 32-token windows, sent as one
/// /v1/search_batch to one shard, a closed loop at kBatchConnections. (One
/// output per request keeps about 4000 requests, 40 latency blocks, in a
/// run.)
bool RunBatch(Context& ctx, Digest& digest) {
  constexpr uint32_t kOutputLength = 512;
  constexpr uint32_t kWindow = 32;
  Rng corpus_rng(kCorpusSeed);
  CorpusShape shape;
  shape.texts = CorpusTexts(ctx, 4000);
  const ndss::Corpus corpus = GenerateCorpus(shape, corpus_rng);
  const Zipf vocab(shape.vocab, shape.zipf_s);
  Rng rng(ctx.options.seed);
  const size_t num_outputs = ctx.options.smoke ? 32 : 256;
  std::vector<std::vector<ndss::Token>> outputs;
  for (size_t i = 0; i < num_outputs; ++i) {
    outputs.push_back(
        MakeModelOutput(corpus, kOutputLength, 0.3, kProbeNoise, vocab, rng));
  }
  digest.Add(corpus);
  for (const auto& output : outputs) digest.Add(output);

  // windows[w]: window w of the concatenated outputs.
  std::vector<std::span<const ndss::Token>> windows;
  for (const auto& output : outputs) {
    for (uint32_t at = 0; at + kWindow <= output.size(); at += kWindow) {
      windows.push_back(
          std::span<const ndss::Token>(output).subspan(at, kWindow));
    }
  }
  const size_t per_request = kOutputLength / kWindow;
  const size_t num_requests = windows.size() / per_request;
  std::vector<std::string> bodies;
  for (size_t r = 0; r < num_requests; ++r) {
    bodies.push_back(ListBody(
        "queries", std::vector<std::span<const ndss::Token>>(
                       windows.begin() + r * per_request,
                       windows.begin() + (r + 1) * per_request)));
  }

  const std::string corpus_file = ctx.work + "/corpus.crp";
  if (!WriteCorpus(corpus_file, corpus)) return false;
  Server server;
  if (!RepeatSetup(ctx,
                   [&](const std::string& dir, Server* out) {
                     return SetupShardSet({corpus_file},
                                          {"--batch-threads=4",
                                           "--list-cache-mb=0"},
                                          dir, out);
                   },
                   &server)) {
    return false;
  }
  // Request i of phase p sends bodies[pick(p, i)]. Phase 0 is the warmup,
  // phase 1 the timed window.
  auto pick = [&](uint64_t phase, uint64_t i) {
    Rng r(Mix(ctx.options.seed, phase, i));
    return r.Uniform(bodies.size());
  };
  auto maker = [&](uint64_t phase) {
    return [&, phase](uint64_t i) {
      return Request{"/v1/search_batch", bodies[pick(phase, i)]};
    };
  };
  const double seconds = ctx.options.seconds;
  const Phase warmup = RunClosedLoop(server.port, kBatchConnections,
                                     kWarmupShare * seconds, maker(0));
  const StatusSnapshot before = ReadStatus(server.port);
  const Phase timed =
      RunClosedLoop(server.port, kBatchConnections, seconds, maker(1));
  const StatusSnapshot after = ReadStatus(server.port);
  const Settled settled = SettledShards(server.port);
  const std::vector<ShardRef>& shards = settled.shards;
  const double rss = PeakRssMb(server.process.pid());

  ServedStats stats;
  Served served;  // by window
  std::set<size_t> memorized_windows;
  std::vector<std::vector<ndss::Token>> sent;
  for (const auto& [phase, id] :
       {std::pair(&warmup, 0), std::pair(&timed, 1)}) {
    Count(ctx, *phase);
    for (const Outcome& outcome : phase->outcomes) {
      const size_t first = pick(id, outcome.index) * per_request;
      if (id != 0) {
        for (size_t q = 0; q < per_request; ++q) {
          sent.push_back(ToVector(windows[first + q]));
        }
      }
      if (outcome.status != 200) continue;
      std::unique_ptr<JsonValue> body = ParseBody(outcome.body);
      const JsonValue* results = body ? body->Find("results") : nullptr;
      if (results == nullptr || results->array().size() != per_request) {
        ++ctx.failed;
        continue;
      }
      for (size_t q = 0; q < per_request; ++q) {
        const JsonValue& result = results->array()[q];
        const JsonValue* code = result.Find("code");
        if (code == nullptr || !code->is_string() ||
            code->string_value() != "OK") {
          ++ctx.failed;
          continue;
        }
        const JsonValue* spans = result.Find("spans");
        const bool hit = spans != nullptr && !spans->array().empty();
        if (id != 0) stats.Add(result);
        if (hit) memorized_windows.insert(first + q);
        served.emplace_back(first + q, AnswerKey(result));
      }
    }
  }
  const size_t memorized = memorized_windows.size();

  AddLatency(ctx, timed);
  // A 200 carries every window's answer (a window that failed inside it is
  // counted as failed above).
  ctx.Add("throughput_per_s",
          BlockRate(timed, kRateBlocks,
                    [&](const Outcome& o) {
                      return o.status == 200 ? per_request : 0.0;
                    }),
          "1/s");
  AddIndexBytes(ctx, settled, static_cast<double>(corpus.total_tokens()));
  ctx.Add("peak_rss_mb", rss, "MB");
  AddOutsideLayers(ctx, timed, stats, before, after);
  AddNoWrites(ctx);

  if (!ctx.options.trace.empty()) {
    if (!TraceLayers(ctx, server, shards, SampleQueries(ctx, sent), corpus,
                     corpus)) {
      return false;
    }
  }
  server.process.Stop();

  // Gates: every served window answer equals the in-process answer, and
  // the memorized-window count equals the direct library's count.
  auto searcher = ndss::ShardedSearcher::Open(server.set_dir);
  if (!searcher.ok()) return false;
  const std::map<size_t, std::string> expected = ExpectedAnswers(
      served, [&](size_t w) { return windows[w]; },
      [&](std::span<const ndss::Token> q) {
        return searcher->Search(q, QueryOptions());
      });
  size_t library_memorized = 0;
  for (const auto& [w, key] : expected) {
    // An answer with no span starts "[]|".
    library_memorized += key.rfind("[]|", 0) != 0;
  }
  const size_t mismatches = CountMismatches(served, expected);
  ctx.failed += mismatches;
  ctx.Gate(mismatches == 0,
           std::to_string(served.size()) +
               " served window answers vs in-process, " +
               std::to_string(mismatches) + " mismatches");
  ctx.Gate(memorized == library_memorized,
           "memorized windows: served " + std::to_string(memorized) +
               ", library " + std::to_string(library_memorized) + " of " +
               std::to_string(expected.size()));
  return true;
}

/// ingest_mixed: a streamable set with a preloaded shard, one connection
/// appending documents beside kIngestReadConnections searching.
bool RunIngest(Context& ctx, Digest& digest) {
  Rng corpus_rng(kCorpusSeed);
  CorpusShape shape;
  shape.texts = CorpusTexts(ctx, 1000);
  const ndss::Corpus preload = GenerateCorpus(shape, corpus_rng);
  CorpusShape stream_shape = shape;
  stream_shape.texts = ctx.options.smoke ? 400 : 8000;
  const ndss::Corpus stream =
      GenerateCorpus(stream_shape, corpus_rng, &preload);
  const Zipf vocab(shape.vocab, shape.zipf_s);
  Rng rng(ctx.options.seed);
  std::vector<Probe> pool;
  for (size_t i = 0; i < 2000; ++i) {
    pool.push_back(MakeProbe(preload, kProbeLength, kProbeNoise, vocab, rng));
  }
  digest.Add(preload);
  digest.Add(stream);
  for (const Probe& probe : pool) digest.Add(probe.tokens);
  const ndss::TextId preload_texts =
      static_cast<ndss::TextId>(preload.num_texts());

  const std::string preload_file = ctx.work + "/preload.crp";
  if (!WriteCorpus(preload_file, preload)) return false;
  Server server;
  if (!RepeatSetup(ctx,
                   [&](const std::string& dir, Server* out) {
                     return SetupIngestSet(
                         preload_file,
                         {"--ingest",
                          "--memtable-mb=" + std::string(kMemtableMb),
                          "--list-cache-mb=" + std::string(kListCacheMb)},
                         dir, out);
                   },
                   &server)) {
    return false;
  }

  // Writes: ingest request j carries stream docs [8j, 8j + 8), which take
  // global ids preload_texts + 8j + d once acknowledged.
  std::atomic<uint64_t> acked{0};
  auto ingest_maker = [&](uint64_t j) {
    std::vector<std::span<const ndss::Token>> docs;
    for (size_t d = 0; d < kDocsPerIngest; ++d) {
      docs.push_back(stream.text((j * kDocsPerIngest + d) % stream.num_texts()));
    }
    return Request{"/v1/ingest", ListBody("documents", docs)};
  };
  auto on_ingest = [&](const Outcome& outcome) {
    if (outcome.status == 200) acked.fetch_add(kDocsPerIngest);
  };

  // Reads: 80% preload probes, 20% read-your-writes probes, an exact
  // 64-token window of an acknowledged doc.
  struct Pick {
    size_t probe = 0;
    int64_t doc = -1;  ///< read-your-writes target, -1 for a preload probe
    uint32_t at = 0;
  };
  auto pick = [&](uint64_t phase, uint64_t i, uint64_t acked_docs) {
    Rng r(Mix(ctx.options.seed, phase, i));
    Pick p;
    p.probe = r.Uniform(pool.size());
    if (r.Unit() < kReadYourWritesShare && acked_docs > 0) {
      p.doc = static_cast<int64_t>(r.Uniform(acked_docs));
      const size_t length = stream.text_length(p.doc % stream.num_texts());
      p.at = static_cast<uint32_t>(r.Uniform(length - kProbeLength + 1));
    }
    return p;
  };
  auto probe_tokens = [&](const Pick& p) {
    if (p.doc < 0) return std::span<const ndss::Token>(pool[p.probe].tokens);
    return stream.text(p.doc % stream.num_texts()).subspan(p.at, kProbeLength);
  };
  const double seconds = ctx.options.seconds;
  // Phase 0 is the warmup, phase 1 the timed window. A pick depends on how
  // many docs were acknowledged when it was sent, so the timed phase records
  // its picks in timed_picks[i], written by the sender of request i. The
  // warmup runs before any write and recomputes.
  std::mutex picks_mutex;
  std::vector<Pick> timed_picks;
  auto search_maker = [&](uint64_t phase) {
    return [&, phase](uint64_t i) {
      const Pick p = pick(phase, i, phase == 0 ? 0 : acked.load());
      if (phase > 0) {
        std::lock_guard<std::mutex> lock(picks_mutex);
        if (timed_picks.size() <= i) timed_picks.resize(i + 1);
        timed_picks[i] = p;
      }
      return Request{"/v1/search", SearchBody(probe_tokens(p))};
    };
  };
  auto pick_of = [&](uint64_t phase, uint64_t i) {
    return phase == 0 ? pick(0, i, 0) : timed_picks[i];
  };

  const Phase warmup = RunClosedLoop(server.port, kIngestReadConnections,
                                     kWarmupShare * seconds, search_maker(0));
  const StatusSnapshot before = ReadStatus(server.port);
  // Through the timed window the readers search and the writer appends,
  // each a closed loop (the writer one connection, next append on ack).
  Phase writes;
  std::thread writer([&] {
    writes = RunClosedLoop(server.port, 1, seconds, ingest_maker, on_ingest);
  });
  const Phase reads = RunClosedLoop(server.port, kIngestReadConnections,
                                    seconds, search_maker(1));
  writer.join();
  const StatusSnapshot after = ReadStatus(server.port);
  const Settled settled = SettledShards(server.port);
  const std::vector<ShardRef>& shards = settled.shards;
  const double rss = PeakRssMb(server.process.pid());

  // Ingest replies: spills and memtable size as the server reports them.
  // Compactions show in the topology: a committed merge serves a
  // `compact-<epoch>-<n>` shard, n counting this server's merges from 0,
  // and only a later merge replaces it.
  double spills = 0;
  std::vector<double> delta_docs;
  double compactions = 0;
  for (const ShardRef& shard : shards) {
    const std::string name = fs::path(shard.dir).filename().string();
    if (name.rfind("compact-", 0) != 0) continue;
    const size_t dash = name.rfind('-');
    compactions = std::max(
        compactions, 1 + std::strtod(name.c_str() + dash + 1, nullptr));
  }
  Count(ctx, writes);
  for (const Outcome& outcome : writes.outcomes) {
    std::unique_ptr<JsonValue> body = ParseBody(outcome.body);
    if (outcome.status != 200 || body == nullptr) continue;
    spills = std::max(spills, Field(*body, "spills"));
    delta_docs.push_back(Field(*body, "delta_docs"));
  }

  ServedStats stats;
  Served preload_answers;  // by pool index
  size_t ryw_probes = 0;
  size_t ryw_missed = 0;
  std::vector<std::vector<ndss::Token>> sent;
  for (const auto& [phase, id] :
       {std::pair(&warmup, 0), std::pair(&reads, 1)}) {
    Count(ctx, *phase);
    for (const Outcome& outcome : phase->outcomes) {
      if (outcome.status != 200) continue;
      std::unique_ptr<JsonValue> answer = ParseBody(outcome.body);
      if (answer == nullptr) {
        ++ctx.failed;
        continue;
      }
      const Pick p = pick_of(id, outcome.index);
      if (id != 0) {
        stats.Add(*answer);
        sent.push_back(ToVector(probe_tokens(p)));
      }
      if (p.doc < 0) {
        preload_answers.emplace_back(p.probe,
                                     AnswerKey(*answer, preload_texts));
        continue;
      }
      ++ryw_probes;
      bool found = false;
      if (const JsonValue* spans = answer->Find("spans")) {
        for (const JsonValue& span : spans->array()) {
          found = found || Field(span, "text") == preload_texts + p.doc;
        }
      }
      ryw_missed += !found;
    }
  }

  // Search latency beside the writer; the writer's rate in docs.
  AddLatency(ctx, reads);
  ctx.Add("throughput_per_s",
          BlockRate(writes, kRateBlocks,
                    [](const Outcome& o) {
                      return o.status == 200 ? kDocsPerIngest : 0.0;
                    }),
          "1/s");
  // The sealed shards hold the preload plus a prefix of the stream.
  double tokens = static_cast<double>(preload.total_tokens());
  uint64_t sealed = 0;
  for (const ShardRef& shard : shards) sealed += shard.texts;
  for (uint64_t d = 0; d + preload_texts < sealed; ++d) {
    tokens += stream.text_length(d % stream.num_texts());
  }
  AddIndexBytes(ctx, settled, tokens);
  ctx.Add("peak_rss_mb", rss, "MB");
  // Acknowledgement latency, send to 200 (durable and visible). Its p90
  // needs ten acks beyond it.
  const std::vector<double> acks = Latencies(writes);
  if (!ctx.options.smoke) {
    ctx.Gate(acks.size() >= kMinAcks,
             std::to_string(acks.size()) + " ack latency samples");
  }
  ctx.Add("ingest.ack_p50_ms", Percentile(acks, 0.5), "ms");
  ctx.Add("ingest.ack_p90_ms", Percentile(acks, 0.9), "ms");
  AddOutsideLayers(ctx, reads, stats, before, after);
  ctx.Add("ingest.spills", spills, "count");
  ctx.Add("ingest.compactions", compactions, "count");
  ctx.Add("ingest.delta_docs", Mean(delta_docs), "count");

  if (!ctx.options.trace.empty()) {
    if (!TraceLayers(ctx, server, shards, SampleQueries(ctx, sent), preload,
                     stream)) {
      return false;
    }
  }
  server.process.Stop();

  // Gates: preload answers equal the preload-only library answers, and
  // every read-your-writes probe found its document.
  auto searcher = ndss::Searcher::Open(ctx.work + "/setup" +
                                       std::to_string(kSetupRuns - 1) +
                                       "/preload");
  if (!searcher.ok()) return false;
  const size_t mismatches = CountMismatches(
      preload_answers,
      ExpectedAnswers(
          preload_answers,
          [&](size_t i) {
            return std::span<const ndss::Token>(pool[i].tokens);
          },
          [&](std::span<const ndss::Token> q) {
            return searcher->Search(q, QueryOptions());
          }));
  ctx.failed += mismatches + ryw_missed;
  ctx.Gate(mismatches == 0,
           std::to_string(preload_answers.size()) +
               " preload answers vs preload-only library, " +
               std::to_string(mismatches) + " mismatches");
  ctx.Gate(ryw_probes > 0 && ryw_missed == 0,
           std::to_string(ryw_probes) + " read-your-writes probes, " +
               std::to_string(ryw_missed) + " missed their document");
  // Writes beside reads means spills and compactions during the run (a
  // smoke run writes too little to compact).
  ctx.Gate(spills >= 2 && (ctx.options.smoke || compactions >= 2),
           "spills " + std::to_string(static_cast<uint64_t>(spills)) +
               ", compactions " +
               std::to_string(static_cast<uint64_t>(compactions)));
  return true;
}

// ---- Output ----

const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"index_bytes_per_token", "B/token"},
    {"peak_rss_mb", "MB"}};

const std::vector<const char*> kPerLayer = {
    "net.server_overhead_ms", "net.sender_lag_p99_ms", "net.request_bytes",
    "net.response_bytes", "net.parse_ms", "net.serialize_ms", "shard.count",
    "shard.search_ms", "shard.gather_ms", "sketch.query_ms",
    "index.list_fetch_ms", "index.zone_probe_ms", "index.io_bytes",
    "index.short_lists", "index.long_lists", "index.build_generate_s",
    "index.build_sort_s", "index.build_write_s", "query.group_ms",
    "query.collision_count_ms", "query.merge_ms", "query.windows_scanned",
    "query.candidate_texts", "query.batch_cache_hit_ratio",
    "query.list_cache_hit_ratio", "query.list_cache_evictions",
    "ingest.ack_p50_ms", "ingest.ack_p90_ms", "ingest.wal_sync_ms",
    "ingest.delta_rebuild_ms", "ingest.spills", "ingest.compactions",
    "ingest.delta_docs", "trace.replay_coverage", "trace.replay_mismatches"};

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string ResultLine(const Context& ctx) {
  std::vector<std::string> names;
  if (ctx.options.trace.empty()) {
    for (const auto& [name, unit] : kEndToEnd) names.push_back(name);
  } else {
    for (const char* name : kPerLayer) names.push_back(name);
  }
  std::string metrics;
  for (const std::string& name : names) {
    const auto it = ctx.metrics.find(name);
    if (it == ctx.metrics.end()) continue;
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + name + "\": ") +
               "{\"value\": " + Number(it->second.value) + ", \"unit\": \"" +
               it->second.unit + "\"}";
  }
  return "{\"correct\": " +
         std::string(ctx.gate_failures.empty() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(ctx.attempted) +
         ", \"failed\": " + std::to_string(ctx.failed) + ", \"metrics\": {" +
         metrics + "}}";
}

bool WriteOut(const Context& ctx, const std::string& digest) {
  std::ofstream out(ctx.options.out);
  out << "{\"workload\": \"" << ctx.options.workload
      << "\", \"seed\": " << ctx.options.seed << ", \"seconds\": "
      << Number(ctx.options.seconds) << ", \"inputs_digest\": \"" << digest
      << "\", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : ctx.metrics) {
    out << (first ? "" : ", ") << "\"" << name
        << "\": {\"value\": " << Number(metric.value) << ", \"unit\": \""
        << metric.unit << "\"}";
    first = false;
  }
  out << "}}\n";
  return out.good();
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options->seconds > 0)) {
        return false;
      }
    } else if (key == "--trace") {
      options->trace = value;
    } else if (key == "--out") {
      options->out = value;
    } else if (key == "--work") {
      options->work = value;
    } else if (arg == "--smoke") {
      options->smoke = true;
    } else {
      return false;
    }
  }
  return !options->workload.empty();
}

}  // namespace
}  // namespace ndss_bench

int main(int argc, char** argv) {
  using namespace ndss_bench;
  Context ctx;
  if (!ParseOptions(argc, argv, &ctx.options)) {
    std::cerr << "usage: ndss_bench --workload=serve_hot|serve_cold|"
                 "batch_memorization|ingest_mixed --seed=S [--seconds=15] "
                 "[--trace=PATH] [--out=PATH] [--work=DIR] [--smoke]\n";
    return 2;
  }
  const std::string& workload = ctx.options.workload;
  if (workload != "serve_hot" && workload != "serve_cold" &&
      workload != "batch_memorization" && workload != "ingest_mixed") {
    std::cerr << "ndss_bench: unknown workload " << workload << "\n";
    return 2;
  }
  ctx.work = fs::absolute(ctx.options.work).string();
  fs::remove_all(ctx.work);
  fs::create_directories(ctx.work);

  Digest digest;
  bool ran = false;
  if (workload == "serve_hot" || workload == "serve_cold") {
    ran = RunServe(ctx, workload == "serve_hot", digest);
  } else if (workload == "batch_memorization") {
    ran = RunBatch(ctx, digest);
  } else {
    ran = RunIngest(ctx, digest);
  }
  fs::remove_all(ctx.work);
  if (!ran) return 2;
  // Non-2xx replies, transport errors and answers that failed a gate.
  ctx.Add("fail_ratio",
          ctx.attempted > 0 ? static_cast<double>(ctx.failed) / ctx.attempted
                            : 0,
          "ratio");
  std::printf("inputs_digest %s\n", digest.Hex().c_str());
  if (!ctx.options.out.empty() && !WriteOut(ctx, digest.Hex())) return 2;
  std::printf("%s\n", ResultLine(ctx).c_str());
  return ctx.gate_failures.empty() ? 0 : 1;
}
