#include "net/serve.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/parse.h"
#include "index/varint_block.h"
#include "query/list_cache.h"

namespace ndss {
namespace net {

namespace {

/// RAII admitted-request slot.
class InflightGuard {
 public:
  explicit InflightGuard(std::atomic<int64_t>* inflight)
      : inflight_(inflight) {}
  ~InflightGuard() { inflight_->fetch_sub(1, std::memory_order_relaxed); }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  std::atomic<int64_t>* const inflight_;
};

/// Reads an optional finite number field: absent leaves `*out` untouched,
/// present-but-not-a-number is an InvalidArgument.
Status GetNumber(const JsonValue& object, const std::string& key,
                 double* out) {
  const JsonValue* field = object.Find(key);
  if (field == nullptr) return Status::OK();
  if (!field->is_number()) {
    return Status::InvalidArgument("field '" + key + "' must be a number");
  }
  *out = field->number();
  return Status::OK();
}

constexpr uint64_t kMaxBytes = std::numeric_limits<uint64_t>::max();
constexpr double kMiB = 1 << 20;

Status GetBoolField(const JsonValue& object, const std::string& key,
                    bool* out) {
  const JsonValue* field = object.Find(key);
  if (field == nullptr) return Status::OK();
  if (!field->is_bool()) {
    return Status::InvalidArgument("field '" + key + "' must be a boolean");
  }
  *out = field->bool_value();
  return Status::OK();
}

/// Validates one JSON array of token ids. Mirrors the strict CLI token
/// parsing in ndss_query: every element must be an integral number in
/// [0, 2^32), anything else is a loud 400.
Status TokensFromJson(const JsonValue& array, const std::string& what,
                      std::vector<Token>* out) {
  if (!array.is_array()) {
    return Status::InvalidArgument("'" + what + "' must be an array");
  }
  out->clear();
  out->reserve(array.array().size());
  for (const JsonValue& element : array.array()) {
    const double v = element.is_number() ? element.number() : -1;
    if (!element.is_number() || v != std::floor(v) || v < 0 ||
        v > 4294967295.0) {
      return Status::InvalidArgument(
          "'" + what + "' elements must be integer token ids in [0, 2^32)");
    }
    out->push_back(static_cast<Token>(v));
  }
  return Status::OK();
}

HttpResponse JsonResponse(int status, const JsonValue& body) {
  HttpResponse response;
  response.status = status;
  response.body = body.Dump();
  return response;
}

/// Parses what a JsonWriter wrote. The writer's bytes are valid JSON by
/// construction, so failure is a bug, not an input error.
JsonValue ParseWritten(const std::string& text) {
  Result<JsonValue> parsed = ParseJson(text);
  NDSS_CHECK(parsed.ok()) << parsed.status().ToString();
  return std::move(*parsed);
}

}  // namespace

void WriteSearchStats(const SearchStats& stats, JsonWriter* w) {
  w->BeginObject();
  w->Key("io_bytes");
  w->Number(stats.io_bytes);
  w->Key("short_lists");
  w->Number(uint64_t{stats.short_lists});
  w->Key("long_lists");
  w->Number(uint64_t{stats.long_lists});
  w->Key("empty_lists");
  w->Number(uint64_t{stats.empty_lists});
  w->Key("cache_hits");
  w->Number(uint64_t{stats.cache_hits});
  w->Key("shared_cache_hits");
  w->Number(uint64_t{stats.shared_cache_hits});
  w->Key("windows_scanned");
  w->Number(stats.windows_scanned);
  w->Key("pass1_candidates");
  w->Number(stats.pass1_candidates);
  w->Key("groups_swept");
  w->Number(stats.groups_swept);
  w->Key("candidate_texts");
  w->Number(stats.candidate_texts);
  w->Key("degraded_funcs");
  w->Number(uint64_t{stats.degraded_funcs});
  w->Key("degraded_shards");
  w->Number(uint64_t{stats.degraded_shards});
  w->Key("wall_seconds");
  w->Number(stats.wall_seconds);
  w->Key("peak_memory_bytes");
  w->Number(stats.peak_memory_bytes);
  w->EndObject();
}

void WriteSearchResult(const SearchResult& result, JsonWriter* w) {
  w->Key("spans");
  w->BeginArray();
  for (const MatchSpan& span : result.spans) {
    w->BeginObject();
    w->Key("text");
    w->Number(uint64_t{span.text});
    w->Key("begin");
    w->Number(uint64_t{span.begin});
    w->Key("end");
    w->Number(uint64_t{span.end});
    w->Key("collisions");
    w->Number(uint64_t{span.collisions});
    w->Key("similarity");
    w->Number(span.estimated_similarity);
    w->EndObject();
  }
  w->EndArray();
  w->Key("rectangles");
  w->BeginArray();
  for (const TextMatchRectangle& rectangle : result.rectangles) {
    w->BeginObject();
    w->Key("text");
    w->Number(uint64_t{rectangle.text});
    w->Key("x_begin");
    w->Number(uint64_t{rectangle.rect.x_begin});
    w->Key("x_end");
    w->Number(uint64_t{rectangle.rect.x_end});
    w->Key("y_begin");
    w->Number(uint64_t{rectangle.rect.y_begin});
    w->Key("y_end");
    w->Number(uint64_t{rectangle.rect.y_end});
    w->Key("collisions");
    w->Number(uint64_t{rectangle.rect.collisions});
    w->EndObject();
  }
  w->EndArray();
  w->Key("stats");
  WriteSearchStats(result.stats, w);
}

JsonValue SearchStatsToJson(const SearchStats& stats) {
  std::string text;
  JsonWriter w(&text);
  WriteSearchStats(stats, &w);
  return ParseWritten(text);
}

void SearchResultToJson(const SearchResult& result, JsonValue* out) {
  // The tree is read back from the writer's bytes, so the reply the server
  // writes directly and this tree share one field list.
  std::string text;
  JsonWriter w(&text);
  w.BeginObject();
  WriteSearchResult(result, &w);
  w.EndObject();
  const JsonValue tree = ParseWritten(text);
  for (const JsonValue::Member& member : tree.members()) {
    out->Set(member.first, member.second);
  }
}

namespace {

/// Room for a reply body: a span or rectangle object prints in well under
/// 128 bytes, the code and stats in under 512.
size_t ReplyReserve(const SearchResult& result) {
  return 512 + 128 * (result.spans.size() + result.rectangles.size());
}

}  // namespace

SearchService::SearchService(ShardedSearcher* searcher, ServeOptions options)
    : searcher_(searcher),
      options_(std::move(options)),
      server_budget_(options_.server_memory_bytes) {}

ServeCounters SearchService::counters() const {
  ServeCounters c;
  c.requests = requests_.load(std::memory_order_relaxed);
  c.searches_ok = searches_ok_.load(std::memory_order_relaxed);
  c.rejected_admission = rejected_admission_.load(std::memory_order_relaxed);
  c.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  c.cancelled = cancelled_.load(std::memory_order_relaxed);
  c.resource_exhausted = resource_exhausted_.load(std::memory_order_relaxed);
  c.invalid = invalid_.load(std::memory_order_relaxed);
  c.failed = failed_.load(std::memory_order_relaxed);
  c.ingests_ok = ingests_ok_.load(std::memory_order_relaxed);
  c.docs_ingested = docs_ingested_.load(std::memory_order_relaxed);
  return c;
}

HttpResponse SearchService::ErrorResponse(const Status& status,
                                          const SearchStats* partial_stats) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kResourceExhausted:
      resource_exhausted_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
      invalid_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      failed_.fetch_add(1, std::memory_order_relaxed);
  }
  HttpResponse response;
  response.status = HttpStatusForCode(status.code());
  JsonWriter w(&response.body);
  w.BeginObject();
  w.Key("code");
  w.String(StatusCodeToString(status.code()));
  w.Key("error");
  w.String(status.message());
  if (partial_stats != nullptr) {
    w.Key("stats");
    WriteSearchStats(*partial_stats, &w);
  }
  w.EndObject();
  return response;
}

HttpResponse SearchService::Handle(const HttpRequest& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (request.target == "/v1/search") {
    if (request.method != "POST") {
      invalid_.fetch_add(1, std::memory_order_relaxed);
      HttpResponse r;
      r.status = 405;
      r.body = "{\"error\":\"use POST\"}";
      return r;
    }
    return HandleSearch(request);
  }
  if (request.target == "/v1/search_batch") {
    if (request.method != "POST") {
      invalid_.fetch_add(1, std::memory_order_relaxed);
      HttpResponse r;
      r.status = 405;
      r.body = "{\"error\":\"use POST\"}";
      return r;
    }
    return HandleSearchBatch(request);
  }
  if (request.target == "/v1/ingest") {
    if (request.method != "POST") {
      invalid_.fetch_add(1, std::memory_order_relaxed);
      HttpResponse r;
      r.status = 405;
      r.body = "{\"error\":\"use POST\"}";
      return r;
    }
    return HandleIngest(request);
  }
  if (request.target == "/v1/status") return HandleStatus();
  if (request.target == "/v1/shards") return HandleShards();
  if (request.target == "/v1/healthz") return HandleHealthz();
  invalid_.fetch_add(1, std::memory_order_relaxed);
  HttpResponse r;
  r.status = 404;
  r.body = "{\"error\":\"unknown route\"}";
  return r;
}

HttpResponse SearchService::HandleSearch(const HttpRequest& request) {
  const QueryContext::Clock::time_point arrival =
      QueryContext::Clock::now();

  Result<JsonValue> parsed = ParseJson(request.body);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  if (!parsed->is_object()) {
    return ErrorResponse(
        Status::InvalidArgument("request body must be a JSON object"));
  }

  const JsonValue* tokens_field = parsed->Find("tokens");
  if (tokens_field == nullptr) {
    return ErrorResponse(Status::InvalidArgument("missing 'tokens'"));
  }
  std::vector<Token> tokens;
  Status s = TokensFromJson(*tokens_field, "tokens", &tokens);
  if (!s.ok()) return ErrorResponse(s);

  double deadline_ms = static_cast<double>(options_.default_deadline_ms);
  double memory_mb =
      static_cast<double>(options_.default_request_memory_bytes) / (1 << 20);
  double theta = options_.search.theta;
  double debug_sleep_ms = 0;
  bool no_prefix_filter = !options_.search.use_prefix_filter;
  s = GetNumber(*parsed, "deadline_ms", &deadline_ms);
  if (s.ok()) s = GetNumber(*parsed, "memory_mb", &memory_mb);
  if (s.ok()) s = GetNumber(*parsed, "theta", &theta);
  if (s.ok()) s = GetNumber(*parsed, "debug_sleep_ms", &debug_sleep_ms);
  if (s.ok()) s = GetBoolField(*parsed, "no_prefix_filter", &no_prefix_filter);
  if (!s.ok()) return ErrorResponse(s);

  // The deadline header wins over the body field — a proxy can tighten a
  // request without parsing it. Strictly parsed: "abc" is a 400, not an
  // infinite deadline.
  const std::string* header = request.FindHeader("x-ndss-deadline-ms");
  if (header != nullptr && !ParseDouble(*header, &deadline_ms)) {
    return ErrorResponse(Status::InvalidArgument(
        "malformed x-ndss-deadline-ms header: '" + *header + "'"));
  }
  int64_t deadline_micros = 0;
  int64_t debug_sleep_micros = 0;
  uint64_t memory_bytes = 0;
  s = ScaleLimit(header != nullptr ? "x-ndss-deadline-ms" : "deadline_ms",
                 deadline_ms, 1000.0, kMaxLimitMicros, &deadline_micros);
  if (s.ok()) {
    s = ScaleLimit("memory_mb", memory_mb, kMiB, kMaxBytes, &memory_bytes);
  }
  if (s.ok()) {
    s = ScaleLimit("debug_sleep_ms", debug_sleep_ms, 1000.0, kMaxLimitMicros,
                   &debug_sleep_micros);
  }
  if (!s.ok()) return ErrorResponse(s);

  // Admission control: reject before any index work.
  const int64_t admitted = inflight_.fetch_add(1, std::memory_order_relaxed);
  InflightGuard guard(&inflight_);
  if (options_.max_inflight > 0 &&
      admitted >= static_cast<int64_t>(options_.max_inflight)) {
    rejected_admission_.fetch_add(1, std::memory_order_relaxed);
    JsonValue body = JsonValue::Object();
    body.Set("code", JsonValue::String("ResourceExhausted"));
    body.Set("error",
             JsonValue::String("admission: too many in-flight requests"));
    return JsonResponse(429, body);
  }

  if (debug_sleep_ms > 0 && options_.allow_debug_sleep) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(debug_sleep_micros));
  }

  SearchOptions search_options = options_.search;
  search_options.theta = theta;
  search_options.use_prefix_filter = !no_prefix_filter;

  MemoryBudget request_budget(memory_bytes, &server_budget_);
  QueryContext ctx;
  ctx.set_memory_budget(&request_budget);
  if (deadline_ms > 0) {
    ctx.set_deadline(arrival + std::chrono::microseconds(deadline_micros));
  }

  SearchResult result;
  s = searcher_->Search(tokens, search_options, &ctx, &result);
  // Governed outcomes carry the partial stats the query accumulated.
  if (!s.ok()) return ErrorResponse(s, &result.stats);
  searches_ok_.fetch_add(1, std::memory_order_relaxed);
  HttpResponse response;
  response.status = 200;
  response.body.reserve(ReplyReserve(result));
  JsonWriter w(&response.body);
  w.BeginObject();
  w.Key("code");
  w.String("OK");
  WriteSearchResult(result, &w);
  w.EndObject();
  return response;
}

HttpResponse SearchService::HandleSearchBatch(const HttpRequest& request) {
  const QueryContext::Clock::time_point arrival =
      QueryContext::Clock::now();

  Result<JsonValue> parsed = ParseJson(request.body);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  if (!parsed->is_object()) {
    return ErrorResponse(
        Status::InvalidArgument("request body must be a JSON object"));
  }
  const JsonValue* queries_field = parsed->Find("queries");
  if (queries_field == nullptr || !queries_field->is_array()) {
    return ErrorResponse(
        Status::InvalidArgument("missing 'queries' (array of token arrays)"));
  }
  std::vector<std::vector<Token>> queries;
  queries.reserve(queries_field->array().size());
  for (const JsonValue& entry : queries_field->array()) {
    std::vector<Token> tokens;
    Status s = TokensFromJson(entry, "queries", &tokens);
    if (!s.ok()) return ErrorResponse(s);
    queries.push_back(std::move(tokens));
  }

  double deadline_ms = static_cast<double>(options_.default_deadline_ms);
  double batch_deadline_ms = 0;
  double memory_mb =
      static_cast<double>(options_.default_request_memory_bytes) / (1 << 20);
  double inflight_mb = 0;
  double theta = options_.search.theta;
  bool no_prefix_filter = !options_.search.use_prefix_filter;
  Status s = GetNumber(*parsed, "deadline_ms", &deadline_ms);
  if (s.ok()) s = GetNumber(*parsed, "batch_deadline_ms", &batch_deadline_ms);
  if (s.ok()) s = GetNumber(*parsed, "memory_mb", &memory_mb);
  if (s.ok()) s = GetNumber(*parsed, "inflight_mb", &inflight_mb);
  if (s.ok()) s = GetNumber(*parsed, "theta", &theta);
  if (s.ok()) s = GetBoolField(*parsed, "no_prefix_filter", &no_prefix_filter);
  if (!s.ok()) return ErrorResponse(s);
  const std::string* header = request.FindHeader("x-ndss-deadline-ms");
  if (header != nullptr && !ParseDouble(*header, &batch_deadline_ms)) {
    return ErrorResponse(Status::InvalidArgument(
        "malformed x-ndss-deadline-ms header: '" + *header + "'"));
  }
  BatchLimits limits;
  int64_t batch_deadline_micros = 0;
  s = ScaleLimit("deadline_ms", deadline_ms, 1000.0, kMaxLimitMicros,
                 &limits.query_timeout_micros);
  if (s.ok()) {
    s = ScaleLimit(
        header != nullptr ? "x-ndss-deadline-ms" : "batch_deadline_ms",
        batch_deadline_ms, 1000.0, kMaxLimitMicros, &batch_deadline_micros);
  }
  if (s.ok()) {
    s = ScaleLimit("memory_mb", memory_mb, kMiB, kMaxBytes,
                   &limits.max_query_bytes);
  }
  if (s.ok()) {
    s = ScaleLimit("inflight_mb", inflight_mb, kMiB, kMaxBytes,
                   &limits.max_inflight_bytes);
  }
  if (!s.ok()) return ErrorResponse(s);
  limits.inflight_parent = &server_budget_;
  const JsonValue* shed = parsed->Find("shed_policy");
  if (shed != nullptr) {
    if (!shed->is_string()) {
      return ErrorResponse(
          Status::InvalidArgument("'shed_policy' must be a string"));
    }
    if (shed->string_value() == "reject-new") {
      limits.shed_policy = ShedPolicy::kRejectNew;
    } else if (shed->string_value() == "cancel-running") {
      limits.shed_policy = ShedPolicy::kCancelRunning;
    } else {
      return ErrorResponse(Status::InvalidArgument(
          "shed_policy must be reject-new or cancel-running"));
    }
  }

  const int64_t admitted = inflight_.fetch_add(1, std::memory_order_relaxed);
  InflightGuard guard(&inflight_);
  if (options_.max_inflight > 0 &&
      admitted >= static_cast<int64_t>(options_.max_inflight)) {
    rejected_admission_.fetch_add(1, std::memory_order_relaxed);
    JsonValue body = JsonValue::Object();
    body.Set("code", JsonValue::String("ResourceExhausted"));
    body.Set("error",
             JsonValue::String("admission: too many in-flight requests"));
    return JsonResponse(429, body);
  }

  SearchOptions search_options = options_.search;
  search_options.theta = theta;
  search_options.use_prefix_filter = !no_prefix_filter;

  // A batch deadline is measured from request receipt, so parse time is on
  // the clock: the batch gets what is left of it, and if nothing is, every
  // query is shed before it starts, whatever the shed policy.
  const int64_t batch_left_micros =
      batch_deadline_micros -
      std::chrono::duration_cast<std::chrono::microseconds>(
          QueryContext::Clock::now() - arrival)
          .count();
  Result<BatchResult> batch = BatchResult();
  if (batch_deadline_ms > 0 && batch_left_micros <= 0) {
    batch->results.resize(queries.size());
    batch->statuses.assign(queries.size(),
                           Status::Cancelled("shed: batch deadline exceeded"));
    batch->stats.queries_shed = queries.size();
  } else {
    if (batch_deadline_ms > 0) limits.batch_timeout_micros = batch_left_micros;
    batch = searcher_->SearchBatch(queries, search_options, limits,
                                   options_.cache_budget_bytes,
                                   options_.batch_threads);
  }
  if (!batch.ok()) return ErrorResponse(batch.status());

  searches_ok_.fetch_add(1, std::memory_order_relaxed);
  HttpResponse response;
  response.status = 200;
  size_t reserve = 512;
  for (const SearchResult& result : batch->results) {
    reserve += ReplyReserve(result);
  }
  response.body.reserve(reserve);
  JsonWriter w(&response.body);
  w.BeginObject();
  w.Key("code");
  w.String("OK");
  w.Key("results");
  w.BeginArray();
  for (size_t i = 0; i < batch->results.size(); ++i) {
    const Status& status = batch->statuses[i];
    w.BeginObject();
    w.Key("code");
    w.String(StatusCodeToString(status.code()));
    w.Key("http");
    w.Number(static_cast<uint64_t>(HttpStatusForCode(status.code())));
    if (status.ok()) {
      WriteSearchResult(batch->results[i], &w);
    } else {
      w.Key("error");
      w.String(status.message());
      w.Key("stats");
      WriteSearchStats(batch->results[i].stats, &w);
    }
    w.EndObject();
  }
  w.EndArray();
  const BatchStats& stats = batch->stats;
  w.Key("batch_stats");
  w.BeginObject();
  w.Key("queries_ok");
  w.Number(stats.queries_ok);
  w.Key("queries_degraded");
  w.Number(stats.queries_degraded);
  w.Key("queries_deadline_exceeded");
  w.Number(stats.queries_deadline_exceeded);
  w.Key("queries_shed");
  w.Number(stats.queries_shed);
  w.Key("queries_resource_exhausted");
  w.Number(stats.queries_resource_exhausted);
  w.Key("queries_failed");
  w.Number(stats.queries_failed);
  w.Key("peak_query_bytes");
  w.Number(stats.peak_query_bytes);
  w.Key("peak_inflight_bytes");
  w.Number(stats.peak_inflight_bytes);
  w.EndObject();
  w.EndObject();
  return response;
}

HttpResponse SearchService::HandleIngest(const HttpRequest& request) {
  Ingester* ingester = ingester_.load(std::memory_order_acquire);
  if (ingester == nullptr) {
    return ErrorResponse(
        Status::InvalidArgument("ingestion is not enabled on this server"));
  }

  Result<JsonValue> parsed = ParseJson(request.body);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  if (!parsed->is_object()) {
    return ErrorResponse(
        Status::InvalidArgument("request body must be a JSON object"));
  }
  const JsonValue* documents_field = parsed->Find("documents");
  if (documents_field == nullptr || !documents_field->is_array()) {
    return ErrorResponse(Status::InvalidArgument(
        "missing 'documents' (array of token arrays)"));
  }
  std::vector<std::vector<Token>> documents;
  documents.reserve(documents_field->array().size());
  for (const JsonValue& entry : documents_field->array()) {
    std::vector<Token> tokens;
    Status s = TokensFromJson(entry, "documents", &tokens);
    if (!s.ok()) return ErrorResponse(s);
    if (tokens.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("'documents' entries must be non-empty"));
    }
    documents.push_back(std::move(tokens));
  }
  if (documents.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("'documents' must not be empty"));
  }

  // Writes compete for the same admission slots as searches: a server
  // drowning in queries sheds ingestion too, instead of wedging on the
  // pipeline lock.
  const int64_t admitted = inflight_.fetch_add(1, std::memory_order_relaxed);
  InflightGuard guard(&inflight_);
  if (options_.max_inflight > 0 &&
      admitted >= static_cast<int64_t>(options_.max_inflight)) {
    rejected_admission_.fetch_add(1, std::memory_order_relaxed);
    JsonValue body = JsonValue::Object();
    body.Set("code", JsonValue::String("ResourceExhausted"));
    body.Set("error",
             JsonValue::String("admission: too many in-flight requests"));
    return JsonResponse(429, body);
  }

  uint64_t last_seqno = 0;
  Status appended = ingester->AppendBatch(documents, &last_seqno);
  if (!appended.ok()) return ErrorResponse(appended);

  ingests_ok_.fetch_add(1, std::memory_order_relaxed);
  docs_ingested_.fetch_add(documents.size(), std::memory_order_relaxed);
  const IngestStats stats = ingester->stats();
  JsonValue body = JsonValue::Object();
  body.Set("code", JsonValue::String("OK"));
  body.Set("docs", JsonValue::Number(static_cast<uint64_t>(documents.size())));
  body.Set("last_seqno", JsonValue::Number(last_seqno));
  body.Set("applied_seqno", JsonValue::Number(stats.applied_seqno));
  body.Set("delta_docs", JsonValue::Number(stats.delta_docs));
  body.Set("spills", JsonValue::Number(stats.spills));
  return JsonResponse(200, body);
}

HttpResponse SearchService::HandleHealthz() {
  // Liveness is implicit (we answered); readiness demands a fully healthy
  // serving path: replay finished, every shard serving, write path sound.
  const bool replaying = wal_replaying_.load(std::memory_order_acquire);
  size_t unhealthy = 0;
  for (const ShardInfo& shard : searcher_->shards()) {
    if (shard.dropped || shard.health.state == ShardHealth::kQuarantined ||
        shard.health.state == ShardHealth::kProbing) {
      ++unhealthy;
    }
  }
  Ingester* ingester = ingester_.load(std::memory_order_acquire);
  const bool poisoned = ingester != nullptr && ingester->poisoned();
  const bool ready = !replaying && unhealthy == 0 && !poisoned;

  JsonValue body = JsonValue::Object();
  body.Set("code", JsonValue::String("OK"));
  body.Set("live", JsonValue::Bool(true));
  body.Set("ready", JsonValue::Bool(ready));
  body.Set("wal_replaying", JsonValue::Bool(replaying));
  body.Set("unhealthy_shards",
           JsonValue::Number(static_cast<uint64_t>(unhealthy)));
  body.Set("ingester_poisoned", JsonValue::Bool(poisoned));
  return JsonResponse(ready ? 200 : 503, body);
}

HttpResponse SearchService::HandleStatus() {
  const IndexMeta meta = searcher_->meta();
  const std::vector<ShardInfo> shards = searcher_->shards();
  size_t serving = 0;
  for (const ShardInfo& shard : shards) {
    if (!shard.dropped && shard.health.state != ShardHealth::kQuarantined &&
        shard.health.state != ShardHealth::kProbing) {
      ++serving;
    }
  }
  JsonValue body = JsonValue::Object();
  body.Set("code", JsonValue::String("OK"));
  body.Set("epoch", JsonValue::Number(searcher_->epoch()));
  body.Set("k", JsonValue::Number(static_cast<uint64_t>(meta.k)));
  body.Set("t", JsonValue::Number(static_cast<uint64_t>(meta.t)));
  body.Set("num_texts", JsonValue::Number(meta.num_texts));
  body.Set("total_tokens", JsonValue::Number(meta.total_tokens));
  body.Set("num_shards", JsonValue::Number(static_cast<uint64_t>(
                             shards.size())));
  body.Set("serving_shards",
           JsonValue::Number(static_cast<uint64_t>(serving)));
  body.Set("inflight", JsonValue::Number(static_cast<uint64_t>(
                           std::max<int64_t>(0, inflight()))));
  body.Set("max_inflight", JsonValue::Number(static_cast<uint64_t>(
                               options_.max_inflight)));
  JsonValue memory = JsonValue::Object();
  memory.Set("used_bytes", JsonValue::Number(server_budget_.used()));
  memory.Set("peak_bytes", JsonValue::Number(server_budget_.peak()));
  memory.Set("max_bytes", JsonValue::Number(server_budget_.max_bytes()));
  body.Set("server_memory", std::move(memory));
  JsonValue cache_json = JsonValue::Object();
  const CrossQueryListCache* cache = searcher_->list_cache();
  cache_json.Set("enabled", JsonValue::Bool(cache != nullptr));
  if (cache != nullptr) {
    const CrossQueryListCache::Counters cc = cache->counters();
    cache_json.Set("budget_bytes", JsonValue::Number(cache->budget_bytes()));
    cache_json.Set("bytes_used", JsonValue::Number(cc.bytes_used));
    cache_json.Set("entries", JsonValue::Number(cc.entries));
    cache_json.Set("hits", JsonValue::Number(cc.hits));
    cache_json.Set("misses", JsonValue::Number(cc.misses));
    cache_json.Set("insertions", JsonValue::Number(cc.insertions));
    cache_json.Set("evictions", JsonValue::Number(cc.evictions));
    cache_json.Set("invalidations", JsonValue::Number(cc.invalidations));
    const uint64_t lookups = cc.hits + cc.misses;
    cache_json.Set("hit_ratio",
                   JsonValue::Number(lookups == 0
                                         ? 0.0
                                         : static_cast<double>(cc.hits) /
                                               static_cast<double>(lookups)));
  }
  body.Set("list_cache", std::move(cache_json));
  body.Set("decode_path", JsonValue::String(WindowDecodePathName()));
  const ServeCounters c = counters();
  JsonValue counters_json = JsonValue::Object();
  counters_json.Set("requests", JsonValue::Number(c.requests));
  counters_json.Set("searches_ok", JsonValue::Number(c.searches_ok));
  counters_json.Set("rejected_admission",
                    JsonValue::Number(c.rejected_admission));
  counters_json.Set("deadline_exceeded",
                    JsonValue::Number(c.deadline_exceeded));
  counters_json.Set("cancelled", JsonValue::Number(c.cancelled));
  counters_json.Set("resource_exhausted",
                    JsonValue::Number(c.resource_exhausted));
  counters_json.Set("invalid", JsonValue::Number(c.invalid));
  counters_json.Set("failed", JsonValue::Number(c.failed));
  counters_json.Set("ingests_ok", JsonValue::Number(c.ingests_ok));
  counters_json.Set("docs_ingested", JsonValue::Number(c.docs_ingested));
  body.Set("counters", std::move(counters_json));
  return JsonResponse(200, body);
}

HttpResponse SearchService::HandleShards() {
  JsonValue body = JsonValue::Object();
  body.Set("code", JsonValue::String("OK"));
  body.Set("epoch", JsonValue::Number(searcher_->epoch()));
  JsonValue shards_json = JsonValue::Array();
  for (const ShardInfo& shard : searcher_->shards()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("dir", JsonValue::String(shard.dir));
    entry.Set("text_offset", JsonValue::Number(static_cast<uint64_t>(
                                 shard.text_offset)));
    entry.Set("num_texts", JsonValue::Number(shard.num_texts));
    entry.Set("dropped", JsonValue::Bool(shard.dropped));
    entry.Set("health",
              JsonValue::String(ShardHealthName(shard.health.state)));
    entry.Set("drops", JsonValue::Number(shard.health.drops));
    entry.Set("quarantines", JsonValue::Number(shard.health.quarantines));
    entry.Set("reopens", JsonValue::Number(shard.health.reopens));
    entry.Set("transient_failures",
              JsonValue::Number(shard.health.transient_failures));
    entry.Set("corruption_failures",
              JsonValue::Number(shard.health.corruption_failures));
    if (!shard.health.last_error.empty()) {
      entry.Set("last_error", JsonValue::String(shard.health.last_error));
    }
    shards_json.Append(std::move(entry));
  }
  body.Set("shards", std::move(shards_json));
  return JsonResponse(200, body);
}

}  // namespace net
}  // namespace ndss
