#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>

#include "answers.h"
#include "index/index_builder.h"
#include "index/inverted_index_reader.h"
#include "ingest/wal.h"
#include "load.h"
#include "net/json.h"
#include "net/serve.h"
#include "query/collision_count.h"
#include "query/radix_sort.h"
#include "query/searcher.h"
#include "shard/sharded_searcher.h"
#include "sketch/sketch_scheme.h"

namespace ndss_bench {

Tracer::Tracer() { epoch_ns_ = Now(); }

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         epoch_ns_;
}

int32_t Tracer::Begin(const char* name, int32_t parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request_;
  span.start_ns = Now();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t id) { spans_[id].end_ns = Now(); }

std::vector<double> Tracer::SelfMs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += (spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    if (spans_[i].parent >= 0) {
      self[spans_[i].parent] -= (spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    }
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\""
        << s.name << "\",\"request\":" << s.request << ",\"parent\":"
        << s.parent << ",\"start_us\":" << s.start_ns / 1000.0
        << ",\"end_us\":" << s.end_ns / 1000.0 << "}";
  }
  out << "\n]}\n";
  return out.good();
}

namespace {

using ndss::InvertedIndexReader;
using ndss::ListMeta;
using ndss::PostedWindow;
using ndss::SearchOptions;
using ndss::SearchResult;
using ndss::TextId;
using ndss::Token;

/// One shard opened twice: as a Searcher (the library's own per-shard
/// search) and as k InvertedIndexReaders (the stage-by-stage replay).
struct ShardFiles {
  ShardRef ref;
  std::optional<ndss::Searcher> searcher;
  std::vector<InvertedIndexReader> readers;
};

/// Re-runs Algorithm 3 on one shard from the library's kernels, following
/// the documented prefix-filter rule: lists longer than
/// long_list_threshold are deferred to zone-map probes, at most beta - 1
/// of them (the shortest overflowing ones are demoted back). Appends the
/// shard's rectangles and spans with global text ids.
bool ReplayShard(ShardFiles& shard, const ndss::SketchScheme& scheme,
                 std::span<const Token> query, const SearchOptions& options,
                 uint32_t t, Tracer& tracer, int32_t parent,
                 SearchResult* out) {
  const uint32_t k = scheme.k();
  const uint32_t beta = std::min<uint32_t>(
      k, static_cast<uint32_t>(std::ceil(options.theta * k)));

  int32_t span = tracer.Begin("sketch.query", parent);
  const auto sketch = ndss::ComputeSketch(scheme, query.data(), query.size());
  tracer.End(span);

  struct ListRef {
    uint32_t func;
    const ListMeta* meta;
  };
  std::vector<ListRef> short_lists;
  std::vector<ListRef> long_lists;
  std::vector<PostedWindow> windows;
  span = tracer.Begin("index.list_fetch", parent);
  for (uint32_t func = 0; func < k; ++func) {
    const ListMeta* meta =
        shard.readers[func].FindList(sketch.argmin_tokens[func]);
    if (meta == nullptr) continue;
    if (options.use_prefix_filter &&
        meta->count > options.long_list_threshold) {
      long_lists.push_back({func, meta});
    } else {
      short_lists.push_back({func, meta});
    }
  }
  if (long_lists.size() > beta - 1) {
    std::sort(long_lists.begin(), long_lists.end(),
              [](const ListRef& a, const ListRef& b) {
                return a.meta->count < b.meta->count;
              });
    const size_t demote = long_lists.size() - (beta - 1);
    short_lists.insert(short_lists.end(), long_lists.begin(),
                       long_lists.begin() + demote);
    long_lists.erase(long_lists.begin(), long_lists.begin() + demote);
  }
  for (const ListRef& ref : short_lists) {
    if (!shard.readers[ref.func].ReadList(*ref.meta, &windows).ok()) {
      return false;
    }
  }
  tracer.End(span);
  const uint32_t beta1 = beta - static_cast<uint32_t>(long_lists.size());

  struct Group {
    TextId text;
    std::vector<PostedWindow> windows;
  };
  std::vector<Group> groups;
  span = tracer.Begin("query.group", parent);
  ndss::RadixSortByKey(&windows, [](const PostedWindow& w) {
    return (static_cast<uint64_t>(w.text) << 32) | w.l;
  });
  for (size_t i = 0; i < windows.size();) {
    size_t j = i;
    while (j < windows.size() && windows[j].text == windows[i].text) ++j;
    if (j - i >= beta1) {
      groups.push_back({windows[i].text, std::vector<PostedWindow>(
                                             windows.begin() + i,
                                             windows.begin() + j)});
    }
    i = j;
  }
  tracer.End(span);

  std::vector<ndss::TextMatchRectangle> rectangles;
  std::vector<ndss::MatchRectangle> rects;
  std::vector<Group> candidates;
  span = tracer.Begin("query.collision_count", parent);
  for (Group& group : groups) {
    rects.clear();
    if (!ndss::CollisionCount(group.windows, beta1, &rects).ok()) return false;
    if (rects.empty()) continue;
    if (long_lists.empty()) {
      for (const auto& r : rects) rectangles.push_back({group.text, r});
    } else {
      candidates.push_back(std::move(group));
    }
  }
  tracer.End(span);

  if (!candidates.empty()) {
    span = tracer.Begin("index.zone_probe", parent);
    for (Group& group : candidates) {
      for (const ListRef& ref : long_lists) {
        if (!shard.readers[ref.func]
                 .ReadWindowsForText(*ref.meta, group.text, &group.windows)
                 .ok()) {
          return false;
        }
      }
    }
    tracer.End(span);
    span = tracer.Begin("query.collision_count", parent);
    for (Group& group : candidates) {
      rects.clear();
      if (!ndss::CollisionCount(group.windows, beta, &rects).ok()) return false;
      for (const auto& r : rects) rectangles.push_back({group.text, r});
    }
    tracer.End(span);
  }

  span = tracer.Begin("query.merge", parent);
  std::vector<ndss::MatchSpan> spans = ndss::MergeRectangles(rectangles, t, k);
  tracer.End(span);
  for (ndss::TextMatchRectangle& r : rectangles) {
    r.text += shard.ref.offset;
    out->rectangles.push_back(r);
  }
  for (ndss::MatchSpan& s : spans) {
    s.text += shard.ref.offset;
    out->spans.push_back(s);
  }
  return true;
}

/// The replayed stages of a per-shard search.
constexpr const char* kShardStages[] = {
    "sketch.query",          "index.list_fetch", "query.group",
    "query.collision_count", "index.zone_probe", "query.merge"};

}  // namespace

bool Replay(const ReplayConfig& config,
            const std::vector<std::vector<Token>>& queries, Tracer& tracer,
            ReplayReport* report) {
  const ndss::SketchScheme scheme(ndss::SketchSchemeId::kIndependent, config.k,
                                  config.index_seed);
  SearchOptions options;
  options.theta = config.theta;

  auto sharded = ndss::ShardedSearcher::Open(config.set_dir);
  if (!sharded.ok()) return false;
  std::vector<ShardFiles> shards(config.shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    shards[i].ref = config.shards[i];
    auto searcher = ndss::Searcher::Open(shards[i].ref.dir);
    if (!searcher.ok()) return false;
    shards[i].searcher.emplace(std::move(*searcher));
    for (uint32_t func = 0; func < config.k; ++func) {
      auto reader = InvertedIndexReader::Open(
          ndss::IndexMeta::InvertedIndexPath(shards[i].ref.dir, func));
      if (!reader.ok()) return false;
      shards[i].readers.push_back(std::move(*reader));
    }
  }

  HttpConnection connection;
  const size_t first_span = tracer.spans().size();
  std::vector<uint32_t> answered;
  std::vector<double> served_ms;
  std::vector<double> slowest_shard_ms;
  for (size_t q = 0; q < queries.size(); ++q) {
    tracer.set_request(static_cast<uint32_t>(q));
    const std::span<const Token> query = queries[q];
    const std::string body = SearchBody(query);
    Scoped request(tracer, "replay.request", -1);

    Reply reply;
    {
      Scoped roundtrip(tracer, "net.roundtrip", request.id());
      if (!connection.connected()) connection.Connect(config.port);
      connection.Roundtrip("POST", "/v1/search", body, &reply);
    }
    if (reply.status != 200) {
      ++report->failed;
      continue;
    }
    {
      Scoped parse(tracer, "net.parse", request.id());
      ndss::net::ParseJson(body).ok();
    }
    auto served = ndss::net::ParseJson(reply.body);
    if (!served.ok()) {
      ++report->failed;
      continue;
    }

    auto result = [&] {
      Scoped span(tracer, "shard.sharded_search", request.id());
      return sharded->Search(query, options);
    }();
    std::vector<double> shard_ms;
    for (ShardFiles& shard : shards) {
      Scoped span(tracer, "shard.search", request.id());
      const auto start = std::chrono::steady_clock::now();
      shard.searcher->Search(query, options).ok();
      shard_ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count());
    }
    SearchResult replayed;
    bool replay_ok = true;
    for (ShardFiles& shard : shards) {
      Scoped span(tracer, "replay.shard", request.id());
      replay_ok = replay_ok && ReplayShard(shard, scheme, query, options,
                                           config.t, tracer, span.id(),
                                           &replayed);
    }
    if (result.ok()) {
      Scoped span(tracer, "net.serialize", request.id());
      ndss::net::JsonValue object = ndss::net::JsonValue::Object();
      object.Set("code", ndss::net::JsonValue::String("OK"));
      ndss::net::SearchResultToJson(*result, &object);
      object.Dump();
    }
    if (!replay_ok || AnswerKey(replayed, config.text_limit) !=
                          AnswerKey(*served, config.text_limit)) {
      ++report->mismatches;
    }
    answered.push_back(static_cast<uint32_t>(q));
    served_ms.push_back(Stat(*served, "wall_seconds") * 1000.0);
    slowest_shard_ms.push_back(
        *std::max_element(shard_ms.begin(), shard_ms.end()));
  }

  // Per-request self times, summed over shards; a stage a request never
  // entered (no long list, so no zone probe) counts as zero.
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = tracer.SelfMs();
  std::map<std::string, std::map<uint32_t, double>> per_request;
  for (size_t i = first_span; i < spans.size(); ++i) {
    per_request[spans[i].name][spans[i].request] += self[i];
  }
  auto stage = [&](const char* name) {
    std::vector<double> values;
    for (uint32_t q : answered) values.push_back(per_request[name][q]);
    return values;
  };
  double stages_ms = 0;
  for (const char* name : kShardStages) {
    report->stage_ms[name] = stage(name);
    for (double ms : report->stage_ms[name]) stages_ms += ms;
  }
  for (const char* name : {"net.parse", "net.serialize"}) {
    report->stage_ms[name] = stage(name);
  }
  const std::vector<double> roundtrip = stage("net.roundtrip");
  const std::vector<double> sharded_ms = stage("shard.sharded_search");
  const std::vector<double> shard_search_ms = stage("shard.search");
  double shard_search_total_ms = 0;
  for (size_t i = 0; i < answered.size(); ++i) {
    report->stage_ms["net.server_overhead"].push_back(roundtrip[i] -
                                                      served_ms[i]);
    report->stage_ms["shard.gather"].push_back(sharded_ms[i] -
                                               slowest_shard_ms[i]);
    shard_search_total_ms += shard_search_ms[i];
  }
  report->coverage =
      shard_search_total_ms > 0 ? stages_ms / shard_search_total_ms : 0;
  return true;
}

bool ReplayIngest(const std::string& dir, const ndss::Corpus& docs,
                  size_t batch, size_t delta_docs, uint32_t k, uint32_t t,
                  uint64_t index_seed, Tracer& tracer, ReplayReport* report) {
  std::filesystem::create_directories(dir);
  const std::string wal_path = dir + "/replay.wal";
  std::filesystem::remove(wal_path);
  auto wal = ndss::WalWriter::Open(wal_path);
  if (!wal.ok()) return false;
  uint64_t seqno = 0;
  for (size_t round = 0; round < 32; ++round) {
    Scoped span(tracer, "ingest.wal_sync", -1);
    for (size_t d = 0; d < batch; ++d) {
      ++seqno;
      if (!wal->Append(seqno, docs.text(seqno % docs.num_texts())).ok()) {
        return false;
      }
    }
    if (!wal->Sync().ok()) return false;
  }
  if (!wal->Close().ok()) return false;

  ndss::Corpus delta;
  for (size_t d = 0; d < delta_docs; ++d) {
    delta.AddText(docs.text(d % docs.num_texts()));
  }
  ndss::IndexBuildOptions build;
  build.k = k;
  build.t = t;
  build.seed = index_seed;
  for (int round = 0; round < 5; ++round) {
    Scoped span(tracer, "ingest.delta_rebuild", -1);
    if (!ndss::Searcher::InMemory(delta, build).ok()) return false;
  }
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = tracer.SelfMs();
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string_view name = spans[i].name;
    if (name == "ingest.wal_sync" || name == "ingest.delta_rebuild") {
      report->stage_ms[spans[i].name].push_back(self[i]);
    }
  }
  return true;
}

}  // namespace ndss_bench
