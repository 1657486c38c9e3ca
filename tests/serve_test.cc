// End-to-end tests of the ndss_serve stack over real sockets: HttpServer +
// SearchService on an ephemeral port against a small sharded index.
//
// The load-bearing claims:
//   - answers over HTTP are bit-identical to the direct ShardedSearcher
//     (serialized through the same JSON path on both sides);
//   - governance maps onto the wire: a tiny deadline is a 504 carrying the
//     partial stats, the inflight limit is a deterministic 429, a faulty
//     shard degrades answers (200 + degraded_shards) and its health shows
//     in /v1/shards, then heals back to exact;
//   - malformed requests are loud 400s, never silently-zero fields;
//   - concurrent clients race safely with online attach/detach (the TSan
//     suite runs this file).

#include "net/serve.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/fault_injection_env.h"
#include "common/file_io.h"
#include "corpusgen/synthetic.h"
#include "index/index_builder.h"
#include "ingest/ingester.h"
#include "net/http.h"
#include "net/json.h"
#include "query/searcher.h"
#include "shard/shard_manifest.h"
#include "shard/sharded_searcher.h"

namespace ndss {
namespace {

using net::HttpClient;
using net::HttpRequest;
using net::HttpResponse;
using net::HttpServer;
using net::HttpServerOptions;
using net::JsonValue;
using net::ParseJson;
using net::SearchService;
using net::ServeOptions;

/// Canonical serialization of an answer's content (spans + rectangles, not
/// stats — stats carry wall-clock times). Both the server and this helper
/// go through net::SearchResultToJson, so equality is bit-identity.
std::string AnswerKey(const JsonValue& object) {
  const JsonValue* spans = object.Find("spans");
  const JsonValue* rectangles = object.Find("rectangles");
  return (spans != nullptr ? spans->Dump() : "") + "|" +
         (rectangles != nullptr ? rectangles->Dump() : "");
}

std::string AnswerKey(const SearchResult& result) {
  JsonValue object = JsonValue::Object();
  net::SearchResultToJson(result, &object);
  return AnswerKey(object);
}

std::string SearchBody(const std::vector<Token>& query, double theta,
                       double deadline_ms = 0, double sleep_ms = 0) {
  JsonValue tokens = JsonValue::Array();
  for (Token token : query) {
    tokens.Append(JsonValue::Number(static_cast<uint64_t>(token)));
  }
  JsonValue body = JsonValue::Object();
  body.Set("tokens", std::move(tokens));
  body.Set("theta", JsonValue::Number(theta));
  if (deadline_ms > 0) {
    body.Set("deadline_ms", JsonValue::Number(deadline_ms));
  }
  if (sleep_ms > 0) {
    body.Set("debug_sleep_ms", JsonValue::Number(sleep_ms));
  }
  return body.Dump();
}

/// The keys of a JSON object, in order.
std::vector<std::string> Keys(const JsonValue& object) {
  std::vector<std::string> keys;
  for (const JsonValue::Member& member : object.members()) {
    keys.push_back(member.first);
  }
  return keys;
}

/// A SearchStats object built field by field as a tree: the reference the
/// direct reply writer must match byte for byte.
JsonValue ReferenceStatsTree(const SearchStats& stats) {
  JsonValue v = JsonValue::Object();
  v.Set("io_bytes", JsonValue::Number(stats.io_bytes));
  v.Set("short_lists", JsonValue::Number(uint64_t{stats.short_lists}));
  v.Set("long_lists", JsonValue::Number(uint64_t{stats.long_lists}));
  v.Set("empty_lists", JsonValue::Number(uint64_t{stats.empty_lists}));
  v.Set("cache_hits", JsonValue::Number(uint64_t{stats.cache_hits}));
  v.Set("shared_cache_hits",
        JsonValue::Number(uint64_t{stats.shared_cache_hits}));
  v.Set("windows_scanned", JsonValue::Number(stats.windows_scanned));
  v.Set("pass1_candidates", JsonValue::Number(stats.pass1_candidates));
  v.Set("groups_swept", JsonValue::Number(stats.groups_swept));
  v.Set("candidate_texts", JsonValue::Number(stats.candidate_texts));
  v.Set("degraded_funcs", JsonValue::Number(uint64_t{stats.degraded_funcs}));
  v.Set("degraded_shards",
        JsonValue::Number(uint64_t{stats.degraded_shards}));
  v.Set("wall_seconds", JsonValue::Number(stats.wall_seconds));
  v.Set("peak_memory_bytes", JsonValue::Number(stats.peak_memory_bytes));
  return v;
}

/// The /v1/search 200 body for `result`, built as a tree.
JsonValue ReferenceReplyTree(const SearchResult& result) {
  JsonValue body = JsonValue::Object();
  body.Set("code", JsonValue::String("OK"));
  JsonValue spans = JsonValue::Array();
  for (const MatchSpan& span : result.spans) {
    JsonValue v = JsonValue::Object();
    v.Set("text", JsonValue::Number(uint64_t{span.text}));
    v.Set("begin", JsonValue::Number(uint64_t{span.begin}));
    v.Set("end", JsonValue::Number(uint64_t{span.end}));
    v.Set("collisions", JsonValue::Number(uint64_t{span.collisions}));
    v.Set("similarity", JsonValue::Number(span.estimated_similarity));
    spans.Append(std::move(v));
  }
  body.Set("spans", std::move(spans));
  JsonValue rectangles = JsonValue::Array();
  for (const TextMatchRectangle& r : result.rectangles) {
    JsonValue v = JsonValue::Object();
    v.Set("text", JsonValue::Number(uint64_t{r.text}));
    v.Set("x_begin", JsonValue::Number(uint64_t{r.rect.x_begin}));
    v.Set("x_end", JsonValue::Number(uint64_t{r.rect.x_end}));
    v.Set("y_begin", JsonValue::Number(uint64_t{r.rect.y_begin}));
    v.Set("y_end", JsonValue::Number(uint64_t{r.rect.y_end}));
    v.Set("collisions", JsonValue::Number(uint64_t{r.rect.collisions}));
    rectangles.Append(std::move(v));
  }
  body.Set("rectangles", std::move(rectangles));
  body.Set("stats", ReferenceStatsTree(result.stats));
  return body;
}

/// What the writer prints for `result` as a /v1/search 200 body.
std::string WrittenReply(const SearchResult& result) {
  std::string text;
  net::JsonWriter w(&text);
  w.BeginObject();
  w.Key("code");
  w.String("OK");
  net::WriteSearchResult(result, &w);
  w.EndObject();
  return text;
}

/// A served body is exactly what a tree prints: parsing and re-dumping it
/// changes no byte.
void ExpectTreeCanonical(const std::string& body) {
  auto parsed = ParseJson(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), body);
}

/// Number field of a (nested) response object, or -1.
double NumberField(const JsonValue& object, const std::string& key) {
  const JsonValue* field = object.Find(key);
  return field != nullptr && field->is_number() ? field->number() : -1;
}

class ServeTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kNumTexts = 160;
  static constexpr uint32_t kShardTexts = 40;  // 3 serving + 1 spare shard

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ndss_serve_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(CreateDirectories(dir_).ok());

    SyntheticCorpusOptions corpus_options;
    corpus_options.num_texts = kNumTexts;
    corpus_options.vocab_size = 400;
    corpus_options.plant_rate = 0.35;
    corpus_options.seed = 91;
    sc_ = GenerateSyntheticCorpus(corpus_options);

    build_.k = 5;
    build_.t = 20;
    for (uint32_t s = 0; s < 4; ++s) {
      Corpus shard;
      for (uint32_t i = s * kShardTexts; i < (s + 1) * kShardTexts; ++i) {
        shard.AddText(sc_.corpus.text(i));
      }
      ASSERT_TRUE(BuildIndexInMemory(shard, ShardDir(s), build_).ok());
    }
    ShardManifest manifest;
    manifest.shard_dirs = {ShardDir(0), ShardDir(1), ShardDir(2)};
    ASSERT_TRUE(manifest.Save(SetDir()).ok());
  }

  void TearDown() override {
    server_.reset();
    service_.reset();
    ingester_.reset();
    searcher_.reset();
    SetDefaultEnv(nullptr);
    std::filesystem::remove_all(dir_);
  }

  std::string ShardDir(uint32_t s) const {
    return dir_ + "/s" + std::to_string(s);
  }
  std::string SetDir() const { return dir_ + "/set"; }

  /// Opens the sharded searcher and starts the server over it.
  void StartServer(ServeOptions serve_options,
                   ShardedSearcherOptions searcher_options = {}) {
    searcher_options.enable_self_healing = true;
    auto searcher = ShardedSearcher::Open(SetDir(), searcher_options);
    ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
    searcher_ =
        std::make_unique<ShardedSearcher>(std::move(*searcher));
    serve_options.search.theta = kTheta;
    service_ = std::make_unique<SearchService>(searcher_.get(),
                                               serve_options);
    server_ = std::make_unique<HttpServer>();
    HttpServerOptions server_options;
    server_options.num_threads = 4;
    ASSERT_TRUE(server_
                    ->Start(server_options,
                            [this](const HttpRequest& request) {
                              return service_->Handle(request);
                            })
                    .ok());
  }

  /// Creates a fresh streamable (WAL-backed) set and starts the server over
  /// it with the write path open, mirroring `ndss_serve --ingest`.
  void StartIngestServer(ServeOptions serve_options = {}) {
    const std::string set_dir = dir_ + "/iset";
    ASSERT_TRUE(Ingester::CreateSet(set_dir, build_).ok());
    auto searcher = ShardedSearcher::Open(set_dir);
    ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
    searcher_ = std::make_unique<ShardedSearcher>(std::move(*searcher));
    serve_options.search.theta = kTheta;
    service_ = std::make_unique<SearchService>(searcher_.get(),
                                               serve_options);
    server_ = std::make_unique<HttpServer>();
    HttpServerOptions server_options;
    server_options.num_threads = 4;
    ASSERT_TRUE(server_
                    ->Start(server_options,
                            [this](const HttpRequest& request) {
                              return service_->Handle(request);
                            })
                    .ok());
    IngestOptions ingest_options;
    ingest_options.build = build_;
    ingest_options.enable_compaction = false;
    auto ingester = Ingester::Open(searcher_.get(), ingest_options);
    ASSERT_TRUE(ingester.ok()) << ingester.status().ToString();
    ingester_ = std::move(*ingester);
    service_->set_ingester(ingester_.get());
  }

  /// One-shot POST on a fresh connection.
  HttpResponse Post(const std::string& target, const std::string& body) {
    HttpClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto response = client.Post(target, body);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? *response : HttpResponse{};
  }

  HttpResponse Get(const std::string& target) {
    HttpClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto response = client.Get(target);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? *response : HttpResponse{};
  }

  std::vector<std::vector<Token>> MakeQueries(size_t count) const {
    Rng rng(5);
    std::vector<std::vector<Token>> queries;
    for (size_t q = 0; q < count; ++q) {
      const TextId source = static_cast<TextId>(
          rng.Uniform(3 * kShardTexts));  // texts of the serving shards
      const auto text = sc_.corpus.text(source);
      const uint32_t length =
          std::min<uint32_t>(35, static_cast<uint32_t>(text.size()));
      queries.push_back(PerturbSequence(text, 0, length, 0.1, 400, rng));
    }
    return queries;
  }

  static constexpr double kTheta = 0.6;

  std::string dir_;
  SyntheticCorpus sc_;
  IndexBuildOptions build_;
  std::unique_ptr<ShardedSearcher> searcher_;
  std::unique_ptr<Ingester> ingester_;
  std::unique_ptr<SearchService> service_;
  std::unique_ptr<HttpServer> server_;
};

TEST(JsonWriterTest, NumbersPrintLikePrintf) {
  // Integral values below 2^53 as %lld, everything else as %.17g: the
  // formats the tree printed with snprintf before the writer shared its
  // std::to_chars printer.
  const double two53 = 9007199254740992.0;
  for (const double value :
       {0.0, -0.0, 1.0, -1.0, 42.0, 0.8, 0.1, 1.0 / 3.0, -2.5, 1.5e-7,
        123456.789, 6.02214076e23, 1e300, -1e-300, 4.9e-324, two53 - 1,
        two53, two53 + 2, -(two53 - 1), 1.8446744073709552e19, 0.6,
        2.0 / 3.0, 1e15 + 0.5}) {
    char expected[64];
    if (value == std::floor(value) && std::abs(value) < two53) {
      std::snprintf(expected, sizeof(expected), "%lld",
                    static_cast<long long>(value));
    } else {
      std::snprintf(expected, sizeof(expected), "%.17g", value);
    }
    std::string written;
    net::JsonWriter w(&written);
    w.Number(value);
    EXPECT_EQ(written, expected) << value;
    EXPECT_EQ(JsonValue::Number(value).Dump(), expected) << value;
  }
}

TEST(JsonWriterTest, ReplyBytesEqualTheTreeDump) {
  SearchResult full;
  full.spans.push_back(MatchSpan{3, 10, 74, 7, 7.0 / 9.0});
  full.spans.push_back(MatchSpan{4000000000u, 0, 4294967295u, 9, 1.0});
  full.rectangles.push_back(
      TextMatchRectangle{3, MatchRectangle{10, 12, 70, 74, 7}});
  full.rectangles.push_back(
      TextMatchRectangle{0, MatchRectangle{0, 0, 0, 0, 0}});
  full.stats.io_bytes = (uint64_t{1} << 53) - 1;
  full.stats.windows_scanned = (uint64_t{1} << 53) + 1;
  full.stats.pass1_candidates = uint64_t{1} << 53;
  full.stats.short_lists = 0xffffffffu;
  full.stats.shared_cache_hits = 31;
  full.stats.wall_seconds = 0.000123456789012345;
  full.stats.peak_memory_bytes = 0;
  SearchResult empty;  // empty arrays, zero counters
  empty.stats.wall_seconds = 1e-9;
  for (const SearchResult* result : {&full, &empty}) {
    const std::string written = WrittenReply(*result);
    EXPECT_EQ(written, ReferenceReplyTree(*result).Dump());
    JsonValue tree = JsonValue::Object();
    tree.Set("code", JsonValue::String("OK"));
    net::SearchResultToJson(*result, &tree);
    EXPECT_EQ(written, tree.Dump());
    EXPECT_EQ(net::SearchStatsToJson(result->stats).Dump(),
              ReferenceStatsTree(result->stats).Dump());
  }
  EXPECT_NE(WrittenReply(empty).find("\"spans\":[],\"rectangles\":[]"),
            std::string::npos);
}

TEST_F(ServeTest, SearchMatchesDirectSearcherBitForBit) {
  StartServer(ServeOptions{});
  SearchOptions options;
  options.theta = kTheta;
  for (const auto& query : MakeQueries(12)) {
    auto direct = searcher_->Search(query, options);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();

    HttpResponse response = Post("/v1/search", SearchBody(query, kTheta));
    ASSERT_EQ(response.status, 200) << response.body;
    auto parsed = ParseJson(response.body);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->Find("code")->string_value(), "OK");
    EXPECT_EQ(AnswerKey(*parsed), AnswerKey(*direct));
    // The reply, written without a tree, is byte for byte the tree's dump
    // once the served stats stand in for the direct search's.
    SearchResult served = *direct;
    served.stats.wall_seconds = NumberField(*parsed->Find("stats"),
                                            "wall_seconds");
    const std::string answer = ReferenceReplyTree(served).Dump();
    ExpectTreeCanonical(response.body);
    EXPECT_EQ(response.body.substr(0, response.body.find("\"stats\"")),
              answer.substr(0, answer.find("\"stats\"")));
  }
}

TEST_F(ServeTest, SearchBatchMatchesDirectSearcher) {
  StartServer(ServeOptions{});
  const auto queries = MakeQueries(8);
  SearchOptions options;
  options.theta = kTheta;

  JsonValue queries_json = JsonValue::Array();
  for (const auto& query : queries) {
    JsonValue tokens = JsonValue::Array();
    for (Token token : query) {
      tokens.Append(JsonValue::Number(static_cast<uint64_t>(token)));
    }
    queries_json.Append(std::move(tokens));
  }
  JsonValue body = JsonValue::Object();
  body.Set("queries", std::move(queries_json));
  body.Set("theta", JsonValue::Number(kTheta));

  HttpResponse response = Post("/v1/search_batch", body.Dump());
  ASSERT_EQ(response.status, 200) << response.body;
  auto parsed = ParseJson(response.body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* results = parsed->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array().size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto direct = searcher_->Search(queries[i], options);
    ASSERT_TRUE(direct.ok());
    const JsonValue& entry = results->array()[i];
    EXPECT_EQ(entry.Find("code")->string_value(), "OK") << "query " << i;
    EXPECT_EQ(AnswerKey(entry), AnswerKey(*direct)) << "query " << i;
    EXPECT_EQ(Keys(entry), (std::vector<std::string>{
                               "code", "http", "spans", "rectangles",
                               "stats"}));
  }
  ExpectTreeCanonical(response.body);
  EXPECT_EQ(Keys(*parsed), (std::vector<std::string>{"code", "results",
                                                     "batch_stats"}));
  const JsonValue* batch_stats = parsed->Find("batch_stats");
  ASSERT_NE(batch_stats, nullptr);
  EXPECT_EQ(NumberField(*batch_stats, "queries_ok"),
            static_cast<double>(queries.size()));
}

TEST_F(ServeTest, AdmissionControlShedsWith429) {
  ServeOptions options;
  options.max_inflight = 1;
  options.allow_debug_sleep = true;
  StartServer(options);
  const auto queries = MakeQueries(1);

  // Occupy the only slot with a sleeping request...
  std::thread sleeper([&] {
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto response = client.Post(
        "/v1/search", SearchBody(queries[0], kTheta, 0, /*sleep_ms=*/2000));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200);
  });
  // ...wait until the server counts it in-flight (admin ops are exempt
  // from admission, so /v1/status works at the limit)...
  bool occupied = false;
  for (int i = 0; i < 400 && !occupied; ++i) {
    auto parsed = ParseJson(Get("/v1/status").body);
    ASSERT_TRUE(parsed.ok());
    occupied = NumberField(*parsed, "inflight") >= 1;
    if (!occupied) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(occupied);

  // ...then every further search must be rejected, deterministically.
  HttpResponse response = Post("/v1/search", SearchBody(queries[0], kTheta));
  EXPECT_EQ(response.status, 429) << response.body;
  auto parsed = ParseJson(response.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("code")->string_value(), "ResourceExhausted");
  EXPECT_NE(parsed->Find("error")->string_value().find("admission"),
            std::string::npos);
  sleeper.join();

  auto status = ParseJson(Get("/v1/status").body);
  ASSERT_TRUE(status.ok());
  const JsonValue* counters = status->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(NumberField(*counters, "rejected_admission"), 1);
}

TEST_F(ServeTest, TinyDeadlineIs504WithPartialStats) {
  StartServer(ServeOptions{});
  const auto queries = MakeQueries(1);
  HttpResponse response = Post(
      "/v1/search", SearchBody(queries[0], kTheta, /*deadline_ms=*/1e-3));
  ASSERT_EQ(response.status, 504) << response.body;
  auto parsed = ParseJson(response.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("code")->string_value(), "DeadlineExceeded");
  // The partial-stats contract carries over the wire.
  const JsonValue* stats = parsed->Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(NumberField(*stats, "wall_seconds"), 0);
  // Written in one pass, the error body is still exactly the tree's dump.
  ExpectTreeCanonical(response.body);
  EXPECT_EQ(Keys(*parsed),
            (std::vector<std::string>{"code", "error", "stats"}));
  EXPECT_EQ(Keys(*stats), Keys(ReferenceStatsTree(SearchStats{})));

  // The header wins over the body field.
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/search";
  request.headers["x-ndss-deadline-ms"] = "0.001";
  request.body = SearchBody(queries[0], kTheta);  // no deadline in body
  auto via_header = client.Roundtrip(request);
  ASSERT_TRUE(via_header.ok());
  EXPECT_EQ(via_header->status, 504);

  // A batch deadline, in the body or the header, is measured from arrival
  // too: a 1 µs one has passed before the batch starts, so the batch
  // answers 200 with every query shed or stopped at its deadline. That
  // holds under reject-new too, which lets a started query finish: a
  // one-query batch would start its query at once if handed the deadline.
  const auto batch_queries = MakeQueries(4);
  const auto batch_body = [&](size_t num_queries) {
    JsonValue queries_json = JsonValue::Array();
    for (size_t q = 0; q < num_queries; ++q) {
      JsonValue tokens = JsonValue::Array();
      for (Token token : batch_queries[q]) {
        tokens.Append(JsonValue::Number(static_cast<uint64_t>(token)));
      }
      queries_json.Append(std::move(tokens));
    }
    JsonValue body = JsonValue::Object();
    body.Set("queries", std::move(queries_json));
    body.Set("theta", JsonValue::Number(kTheta));
    return body;
  };
  JsonValue with_deadline = batch_body(batch_queries.size());
  with_deadline.Set("batch_deadline_ms", JsonValue::Number(1e-3));
  JsonValue reject_new = batch_body(1);
  reject_new.Set("batch_deadline_ms", JsonValue::Number(1e-3));
  reject_new.Set("shed_policy", JsonValue::String("reject-new"));
  HttpRequest batch_request;
  batch_request.method = "POST";
  batch_request.target = "/v1/search_batch";
  batch_request.headers["x-ndss-deadline-ms"] = "0.001";
  batch_request.body = batch_body(batch_queries.size()).Dump();
  auto batch_via_header = client.Roundtrip(batch_request);
  ASSERT_TRUE(batch_via_header.ok());
  for (const auto& [response, num_queries] :
       {std::pair(Post("/v1/search_batch", with_deadline.Dump()),
                  batch_queries.size()),
        std::pair(Post("/v1/search_batch", reject_new.Dump()), size_t{1}),
        std::pair(*batch_via_header, batch_queries.size())}) {
    ASSERT_EQ(response.status, 200) << response.body;
    auto batch = ParseJson(response.body);
    ASSERT_TRUE(batch.ok());
    const JsonValue* results = batch->Find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->array().size(), num_queries);
    for (const JsonValue& entry : results->array()) {
      const std::string code = entry.Find("code")->string_value();
      EXPECT_TRUE(code == "Cancelled" || code == "DeadlineExceeded") << code;
      EXPECT_EQ(Keys(entry), (std::vector<std::string>{"code", "http",
                                                       "error", "stats"}));
    }
    ExpectTreeCanonical(response.body);
    const JsonValue* batch_stats = batch->Find("batch_stats");
    ASSERT_NE(batch_stats, nullptr);
    EXPECT_EQ(NumberField(*batch_stats, "queries_shed") +
                  NumberField(*batch_stats, "queries_deadline_exceeded"),
              static_cast<double>(num_queries));
  }
}

TEST_F(ServeTest, MalformedRequestsAreLoud400s) {
  StartServer(ServeOptions{});
  const auto queries = MakeQueries(1);

  EXPECT_EQ(Post("/v1/search", "{not json").status, 400);
  EXPECT_EQ(Post("/v1/search", "[1,2,3]").status, 400);
  EXPECT_EQ(Post("/v1/search", "{}").status, 400);  // missing tokens
  EXPECT_EQ(Post("/v1/search", R"({"tokens":[1,"abc",3]})").status, 400);
  EXPECT_EQ(Post("/v1/search", R"({"tokens":[1.5]})").status, 400);
  EXPECT_EQ(Post("/v1/search", R"({"tokens":[4294967296]})").status, 400);
  EXPECT_EQ(Post("/v1/search", R"({"tokens":[-1]})").status, 400);
  EXPECT_EQ(
      Post("/v1/search", R"({"tokens":[1],"deadline_ms":"soon"})").status,
      400);
  EXPECT_EQ(Post("/v1/search", R"({"tokens":[1],"deadline_ms":-5})").status,
            400);
  EXPECT_EQ(Post("/v1/search_batch", R"({"queries":[[1],"x"]})").status,
            400);
  EXPECT_EQ(
      Post("/v1/search_batch",
           R"({"queries":[[1]],"shed_policy":"sometimes"})")
          .status,
      400);

  // A malformed deadline header must be a 400, never an infinite deadline
  // (the wire-level twin of the --deadline-ms=abc CLI bug).
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/search";
  request.headers["x-ndss-deadline-ms"] = "abc";
  request.body = SearchBody(queries[0], kTheta);
  auto response = client.Roundtrip(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 400);

  EXPECT_EQ(Get("/v1/nope").status, 404);
  EXPECT_EQ(Get("/v1/search").status, 405);

  auto status = ParseJson(Get("/v1/status").body);
  ASSERT_TRUE(status.ok());
  const JsonValue* counters = status->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(NumberField(*counters, "invalid"), 13);
  EXPECT_EQ(NumberField(*counters, "searches_ok"), 0);
}

TEST_F(ServeTest, LimitsThatOverflowTheirIntegerTypeAre400s) {
  // A finite limit whose scaled value does not fit its integer type used to
  // convert with undefined behaviour: a 1e300 ms deadline landed in the
  // past (a 504) and a 1e300 MB memory cap became 0 (unlimited).
  ServeOptions options;
  options.allow_debug_sleep = true;
  StartServer(options);
  const auto queries = MakeQueries(1);
  const std::string search = SearchBody(queries[0], kTheta);
  const std::string fields = search.substr(0, search.size() - 1);
  const auto with = [&](const std::string& field) {
    return fields + "," + field + "}";
  };
  for (const char* field :
       {R"("deadline_ms":1e300)", R"("deadline_ms":1e16)",
        R"("memory_mb":1e300)", R"("memory_mb":1.8e13)",
        R"("debug_sleep_ms":1e300)"}) {
    HttpResponse response = Post("/v1/search", with(field));
    EXPECT_EQ(response.status, 400) << field << ": " << response.body;
  }
  for (const char* field :
       {R"("deadline_ms":1e300)", R"("batch_deadline_ms":1e300)",
        R"("memory_mb":1e300)", R"("inflight_mb":1e300)"}) {
    HttpResponse response = Post(
        "/v1/search_batch",
        R"({"queries":[[1,2,3]],)" + std::string(field) + "}");
    EXPECT_EQ(response.status, 400) << field << ": " << response.body;
  }

  // The deadline header gets the same check on both endpoints.
  for (const char* target : {"/v1/search", "/v1/search_batch"}) {
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    HttpRequest request;
    request.method = "POST";
    request.target = target;
    request.headers["x-ndss-deadline-ms"] = "1e300";
    request.body = std::string(target) == "/v1/search"
                       ? search
                       : R"({"queries":[[1,2,3]]})";
    auto response = client.Roundtrip(request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 400) << target << ": " << response->body;
  }

  // Large limits that do fit still answer.
  HttpResponse ok = Post(
      "/v1/search", with(R"("deadline_ms":1e9,"memory_mb":1e6)"));
  EXPECT_EQ(ok.status, 200) << ok.body;
}

TEST_F(ServeTest, StatusAndShardsReportTopology) {
  StartServer(ServeOptions{});
  auto status = ParseJson(Get("/v1/status").body);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(NumberField(*status, "num_shards"), 3);
  EXPECT_EQ(NumberField(*status, "serving_shards"), 3);
  EXPECT_EQ(NumberField(*status, "num_texts"), 3.0 * kShardTexts);
  EXPECT_EQ(NumberField(*status, "inflight"), 0);

  auto shards = ParseJson(Get("/v1/shards").body);
  ASSERT_TRUE(shards.ok());
  const JsonValue* list = shards->Find("shards");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->array().size(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    const JsonValue& entry = list->array()[s];
    EXPECT_EQ(entry.Find("health")->string_value(), "healthy");
    EXPECT_EQ(NumberField(entry, "text_offset"),
              static_cast<double>(s * kShardTexts));
    EXPECT_EQ(NumberField(entry, "num_texts"), kShardTexts);
  }
}

TEST_F(ServeTest, FaultyShardDegradesAnswersAndHealsBack) {
  // The searcher must open through the fault env so every pread of shard 1
  // can be failed; the server then keeps answering with the survivors.
  auto fault = std::make_unique<FaultInjectionEnv>(Env::Posix());
  SetDefaultEnv(fault.get());

  ShardedSearcherOptions searcher_options;
  searcher_options.health.consecutive_failures_to_quarantine = 2;
  searcher_options.health.initial_probe_delay_micros = 1000;
  searcher_options.health.max_probe_delay_micros = 100'000;
  searcher_options.health.monitor_poll_micros = 1000;
  StartServer(ServeOptions{}, searcher_options);
  const auto queries = MakeQueries(6);

  fault->SetFaultPathFilter(ShardDir(1));
  fault->SetFailProbability(1.0);

  // Degraded serving: still 200, with the exclusion reported honestly.
  bool degraded = false;
  for (int i = 0; i < 50 && !degraded; ++i) {
    HttpResponse response =
        Post("/v1/search", SearchBody(queries[i % queries.size()], kTheta));
    ASSERT_EQ(response.status, 200) << response.body;
    auto parsed = ParseJson(response.body);
    ASSERT_TRUE(parsed.ok());
    degraded = NumberField(*parsed->Find("stats"), "degraded_shards") >= 1;
  }
  EXPECT_TRUE(degraded);

  // The shard's state shows in the admin plane.
  bool unhealthy = false;
  for (int i = 0; i < 200 && !unhealthy; ++i) {
    auto shards = ParseJson(Get("/v1/shards").body);
    ASSERT_TRUE(shards.ok());
    const JsonValue& entry = shards->Find("shards")->array()[1];
    unhealthy = entry.Find("health")->string_value() != "healthy";
    if (!unhealthy) {
      (void)Post("/v1/search",
                 SearchBody(queries[i % queries.size()], kTheta));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(unhealthy);

  // Fault clears -> the health monitor reopens the shard and answers are
  // exact again.
  fault->Heal();
  bool recovered = false;
  for (int i = 0; i < 1000 && !recovered; ++i) {
    HttpResponse response =
        Post("/v1/search", SearchBody(queries[i % queries.size()], kTheta));
    if (response.status == 200) {
      auto parsed = ParseJson(response.body);
      ASSERT_TRUE(parsed.ok());
      recovered =
          NumberField(*parsed->Find("stats"), "degraded_shards") == 0;
    }
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(recovered);

  // Server down before the env goes away.
  server_.reset();
  service_.reset();
  searcher_.reset();
  SetDefaultEnv(nullptr);
}

TEST_F(ServeTest, ConcurrentClientsRaceAttachDetachSafely) {
  StartServer(ServeOptions{});
  const auto queries = MakeQueries(4);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> responses{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
      size_t i = static_cast<size_t>(c);
      while (!stop.load(std::memory_order_relaxed)) {
        auto response = client.Post(
            "/v1/search", SearchBody(queries[i++ % queries.size()], kTheta));
        if (!response.ok()) break;
        // Topology changes under us, so answers legitimately differ run
        // to run — but every response must be a well-formed 200.
        EXPECT_EQ(response->status, 200);
        auto parsed = ParseJson(response->body);
        EXPECT_TRUE(parsed.ok());
        responses.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Attach/detach the spare shard while clients hammer the server; also
  // poll the admin plane, which reads the same topology.
  for (int cycle = 0; cycle < 4; ++cycle) {
    ASSERT_TRUE(searcher_->AttachShard(ShardDir(3)).ok());
    auto shards = ParseJson(Get("/v1/shards").body);
    ASSERT_TRUE(shards.ok());
    EXPECT_EQ(shards->Find("shards")->array().size(), 4u);
    ASSERT_TRUE(searcher_->DetachShard(ShardDir(3)).ok());
  }
  // Let the clients observe the final topology a little longer.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (auto& client : clients) client.join();
  EXPECT_GT(responses.load(), 0u);

  auto status = ParseJson(Get("/v1/status").body);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(NumberField(*status, "num_shards"), 3);
  EXPECT_EQ(NumberField(*status, "epoch"), 8);  // 4 attach/detach cycles
}

// ---- streaming ingestion over HTTP ----

TEST_F(ServeTest, HealthzReportsReadinessTransitions) {
  StartServer(ServeOptions{});

  HttpResponse ready = Get("/v1/healthz");
  EXPECT_EQ(ready.status, 200);
  auto parsed = ParseJson(ready.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("live")->bool_value(), true);
  EXPECT_EQ(parsed->Find("ready")->bool_value(), true);
  EXPECT_EQ(parsed->Find("wal_replaying")->bool_value(), false);
  EXPECT_EQ(NumberField(*parsed, "unhealthy_shards"), 0);

  // During WAL replay the server is live but not ready: an LB must not
  // route traffic to it, but an orchestrator must not kill it either.
  service_->set_wal_replaying(true);
  HttpResponse replaying = Get("/v1/healthz");
  EXPECT_EQ(replaying.status, 503);
  parsed = ParseJson(replaying.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("live")->bool_value(), true);
  EXPECT_EQ(parsed->Find("ready")->bool_value(), false);
  EXPECT_EQ(parsed->Find("wal_replaying")->bool_value(), true);

  service_->set_wal_replaying(false);
  EXPECT_EQ(Get("/v1/healthz").status, 200);
}

TEST_F(ServeTest, IngestThenSearchFindsTheDocumentOverHttp) {
  StartIngestServer();

  // Healthz is ready with the write path open.
  EXPECT_EQ(Get("/v1/healthz").status, 200);

  // Ingest four documents over the wire.
  JsonValue documents = JsonValue::Array();
  for (size_t i = 0; i < 4; ++i) {
    JsonValue tokens = JsonValue::Array();
    for (Token token : sc_.corpus.text(i)) {
      tokens.Append(JsonValue::Number(static_cast<uint64_t>(token)));
    }
    documents.Append(std::move(tokens));
  }
  JsonValue body = JsonValue::Object();
  body.Set("documents", std::move(documents));
  HttpResponse ingested = Post("/v1/ingest", body.Dump());
  EXPECT_EQ(ingested.status, 200) << ingested.body;
  auto parsed = ParseJson(ingested.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(NumberField(*parsed, "docs"), 4);
  EXPECT_EQ(NumberField(*parsed, "last_seqno"), 4);
  EXPECT_EQ(NumberField(*parsed, "delta_docs"), 4);

  // The acked documents are immediately searchable through the same server.
  const auto text = sc_.corpus.text(2);
  const std::vector<Token> query(text.begin(), text.begin() + 35);
  HttpResponse found = Post("/v1/search", SearchBody(query, kTheta));
  EXPECT_EQ(found.status, 200) << found.body;
  auto answer = ParseJson(found.body);
  ASSERT_TRUE(answer.ok());
  const JsonValue* spans = answer->Find("spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_FALSE(spans->array().empty())
      << "ingested document not found by search";

  // The write path shows up in the counters.
  auto status = ParseJson(Get("/v1/status").body);
  ASSERT_TRUE(status.ok());
  const JsonValue* counters = status->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(NumberField(*counters, "ingests_ok"), 1);
  EXPECT_EQ(NumberField(*counters, "docs_ingested"), 4);

  // Malformed ingest bodies are loud 400s.
  EXPECT_EQ(Post("/v1/ingest", "{}").status, 400);
  EXPECT_EQ(Post("/v1/ingest", "{\"documents\":[]}").status, 400);
  EXPECT_EQ(Post("/v1/ingest", "{\"documents\":[[]]}").status, 400);
}

TEST_F(ServeTest, IngestWithoutWritePathIsRejected) {
  StartServer(ServeOptions{});  // no ingester attached
  HttpResponse rejected =
      Post("/v1/ingest", "{\"documents\":[[1,2,3]]}");
  EXPECT_EQ(rejected.status, 400);
  auto parsed = ParseJson(rejected.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("code")->string_value(), "InvalidArgument");
}

}  // namespace
}  // namespace ndss
