// ndss_query: runs near-duplicate searches against a built index.
//
// The query is either an explicit token list, a span of a corpus text, or
// a random perturbed span (for quick smoke tests):
//
//   ndss_query --index=/data/idx --theta=0.8 --tokens=17,4,99,23,...
//   ndss_query --index=/data/idx --corpus=/data/corpus.crp --text=12
//              --begin=100 --len=64 [--noise=0.05]
//   ndss_query --index=/data/idx --corpus=/data/corpus.crp --random=10
//
// --random mode runs the whole set through SearchBatch (shared list cache);
// --threads=N fans the batch out across N worker threads.
//
// Resource governance: --deadline-ms bounds each query's wall-clock,
// --query-memory-mb bounds its working memory, --batch-deadline-ms bounds
// the whole --random batch (with --shed-policy=reject-new|cancel-running).
// Governed failures exit with distinct codes so scripts can tell an
// overloaded query from a broken index: 4 = deadline exceeded,
// 5 = memory budget exhausted, 6 = shed by batch admission control
// (1 remains the generic error exit).

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/query_context.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "query/searcher.h"
#include "text/corpus_file.h"
#include "tool_flags.h"

namespace {

constexpr int kExitDeadline = 4;
constexpr int kExitMemory = 5;
constexpr int kExitShed = 6;

std::vector<ndss::Token> ParseTokens(const std::string& list) {
  std::vector<ndss::Token> tokens;
  std::stringstream stream(list);
  std::string item;
  while (std::getline(stream, item, ',')) {
    uint32_t value = 0;
    if (!ndss::ParseUint32(item, &value)) {
      // A malformed entry used to strtoul to 0 and silently query token 0.
      ndss::tools::Die("--tokens: malformed token '" + item +
                       "' (expected a comma-separated uint32 list)");
    }
    tokens.push_back(static_cast<ndss::Token>(value));
  }
  return tokens;
}

/// Exit code for one governed query outcome (0 = keep going).
int ExitCodeFor(const ndss::Status& status) {
  if (status.IsDeadlineExceeded()) return kExitDeadline;
  if (status.IsResourceExhausted()) return kExitMemory;
  if (status.IsCancelled()) return kExitShed;
  return status.ok() ? 0 : 1;
}

/// Reads limit flag `name` scaled into T; a negative or NaN value, or one
/// whose scaled value does not fit in T, is a usage error.
template <typename T>
T LimitFlag(const ndss::tools::Flags& flags, const std::string& name,
            double scale, T max) {
  T out = 0;
  const ndss::Status status = ndss::ScaleLimit(
      "--" + name, flags.GetDouble(name, 0), scale, max, &out);
  if (!status.ok()) ndss::tools::Die(status.ToString());
  return out;
}

/// Governance limits from flags, scaled once before any query runs. A
/// single query uses the per-query fields.
ndss::BatchLimits LimitsFromFlags(const ndss::tools::Flags& flags) {
  ndss::BatchLimits limits;
  limits.query_timeout_micros =
      LimitFlag(flags, "deadline-ms", 1000.0, ndss::kMaxLimitMicros);
  limits.batch_timeout_micros =
      LimitFlag(flags, "batch-deadline-ms", 1000.0, ndss::kMaxLimitMicros);
  limits.max_query_bytes =
      LimitFlag(flags, "query-memory-mb", static_cast<double>(1 << 20),
                std::numeric_limits<uint64_t>::max());
  return limits;
}

int RunOne(ndss::Searcher& searcher, const std::vector<ndss::Token>& query,
           const ndss::SearchOptions& options,
           const ndss::BatchLimits& limits, bool verbose) {
  ndss::MemoryBudget budget(limits.max_query_bytes);
  ndss::QueryContext ctx;
  if (limits.query_timeout_micros > 0) {
    ctx.set_deadline(ndss::QueryContext::Clock::now() +
                     std::chrono::microseconds(limits.query_timeout_micros));
  }
  if (budget.max_bytes() > 0) ctx.set_memory_budget(&budget);
  ndss::Stopwatch watch;
  ndss::SearchResult result;
  const ndss::Status status = searcher.Search(query, options, &ctx, &result);
  if (!status.ok()) {
    const int code = ExitCodeFor(status);
    if (code == 1) ndss::tools::Die(status.ToString());
    // Governed exit: report the partial stats the query accumulated.
    std::fprintf(stderr,
                 "query stopped: %s (after %.3f ms, io %.0f KB, "
                 "%llu windows scanned, peak memory %.0f KB)\n",
                 status.ToString().c_str(), watch.ElapsedMillis(),
                 result.stats.io_bytes / 1e3,
                 static_cast<unsigned long long>(
                     result.stats.windows_scanned),
                 result.stats.peak_memory_bytes / 1e3);
    return code;
  }
  std::printf("query (%zu tokens): %zu matching spans in %.3f ms "
              "(io %.0f KB)\n",
              query.size(), result.spans.size(), watch.ElapsedMillis(),
              result.stats.io_bytes / 1e3);
  if (verbose) {
    for (const ndss::MatchSpan& span : result.spans) {
      std::printf("  text %-8u tokens [%u..%u]  est. Jaccard %.3f\n",
                  span.text, span.begin, span.end,
                  span.estimated_similarity);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ndss::tools::Flags flags(argc, argv);
  const std::string index_dir = flags.GetString("index", "");
  if (index_dir.empty()) {
    ndss::tools::Die(
        "usage: ndss_query --index=DIR (--tokens=a,b,c | --corpus=FILE "
        "(--text=ID --begin=B --len=L [--noise=P] | --random=N)) "
        "[--theta=T] [--threads=N] [--no-prefix-filter] [--cost-model] "
        "[--deadline-ms=D] [--query-memory-mb=M] [--batch-deadline-ms=D] "
        "[--shed-policy=reject-new|cancel-running] [--quiet]");
  }
  ndss::BatchLimits limits = LimitsFromFlags(flags);
  auto searcher = ndss::Searcher::Open(index_dir);
  if (!searcher.ok()) ndss::tools::Die(searcher.status().ToString());
  std::printf("index: k=%u t=%u sketch=%s texts=%llu tokens=%llu\n",
              searcher->meta().k, searcher->meta().t,
              ndss::SketchSchemeName(searcher->meta().sketch),
              static_cast<unsigned long long>(searcher->meta().num_texts),
              static_cast<unsigned long long>(
                  searcher->meta().total_tokens));

  ndss::SearchOptions options;
  options.theta = flags.GetDouble("theta", 0.8);
  options.use_prefix_filter = !flags.GetBool("no-prefix-filter", false);
  options.use_cost_model = flags.GetBool("cost-model", false);
  if (!options.use_cost_model) {
    options.long_list_threshold = searcher->ListCountPercentile(
        flags.GetDouble("prefix-fraction", 0.10));
  }
  const bool verbose = !flags.GetBool("quiet", false);

  if (flags.Has("tokens")) {
    return RunOne(*searcher, ParseTokens(flags.GetString("tokens", "")),
                  options, limits, verbose);
  }

  const std::string corpus_path = flags.GetString("corpus", "");
  if (corpus_path.empty()) {
    ndss::tools::Die("need --tokens or --corpus");
  }
  auto corpus = ndss::CorpusFileReader::Open(corpus_path);
  if (!corpus.ok()) ndss::tools::Die(corpus.status().ToString());

  if (flags.Has("random")) {
    const int count = static_cast<int>(flags.GetInt("random", 10));
    const uint32_t len = static_cast<uint32_t>(flags.GetInt("len", 64));
    const double noise = flags.GetDouble("noise", 0.05);
    const size_t threads =
        static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("threads", 1)));
    ndss::Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
    std::vector<std::vector<ndss::Token>> queries;
    for (int i = 0; i < count; ++i) {
      const ndss::TextId id =
          static_cast<ndss::TextId>(rng.Uniform(corpus->num_texts()));
      auto text = corpus->ReadText(id);
      if (!text.ok()) ndss::tools::Die(text.status().ToString());
      if (text->size() < len) {
        --i;  // resample; assumes some text is long enough
        continue;
      }
      const uint32_t begin =
          static_cast<uint32_t>(rng.Uniform(text->size() - len + 1));
      std::vector<ndss::Token> query(text->begin() + begin,
                                     text->begin() + begin + len);
      for (auto& token : query) {
        if (rng.NextBool(noise)) {
          token = static_cast<ndss::Token>(rng.Uniform(1 << 20));
        }
      }
      queries.push_back(std::move(query));
    }
    const std::string shed = flags.GetString("shed-policy", "cancel-running");
    if (shed == "reject-new") {
      limits.shed_policy = ndss::ShedPolicy::kRejectNew;
    } else if (shed != "cancel-running") {
      ndss::tools::Die("--shed-policy must be reject-new or cancel-running");
    }
    ndss::Stopwatch watch;
    auto batch = searcher->SearchBatch(queries, options, limits,
                                       /*cache_budget_bytes=*/256ull << 20,
                                       threads);
    if (!batch.ok()) ndss::tools::Die(batch.status().ToString());
    const double elapsed = watch.ElapsedMillis();
    uint64_t spans = 0, io_bytes = 0, cache_hits = 0;
    for (size_t i = 0; i < batch->results.size(); ++i) {
      const ndss::SearchResult& result = batch->results[i];
      spans += result.spans.size();
      io_bytes += result.stats.io_bytes;
      cache_hits += result.stats.cache_hits;
      if (verbose) {
        if (batch->statuses[i].ok()) {
          std::printf("query (%zu tokens): %zu matching spans (io %.0f KB)\n",
                      queries[i].size(), result.spans.size(),
                      result.stats.io_bytes / 1e3);
        } else {
          std::printf("query (%zu tokens): %s\n", queries[i].size(),
                      batch->statuses[i].ToString().c_str());
        }
      }
    }
    const ndss::BatchStats& stats = batch->stats;
    std::printf("batch: %zu queries, %llu spans, %.3f ms total "
                "(%zu threads, io %.0f KB, %llu cache hits)\n",
                queries.size(), static_cast<unsigned long long>(spans),
                elapsed, threads, io_bytes / 1e3,
                static_cast<unsigned long long>(cache_hits));
    std::printf("governance: ok=%llu deadline_exceeded=%llu shed=%llu "
                "resource_exhausted=%llu failed=%llu peak_query=%.0f KB\n",
                static_cast<unsigned long long>(stats.queries_ok),
                static_cast<unsigned long long>(
                    stats.queries_deadline_exceeded),
                static_cast<unsigned long long>(stats.queries_shed),
                static_cast<unsigned long long>(
                    stats.queries_resource_exhausted),
                static_cast<unsigned long long>(stats.queries_failed),
                stats.peak_query_bytes / 1e3);
    // Exit-code priority: a real failure trumps governed outcomes.
    if (stats.queries_failed > 0) return 1;
    if (stats.queries_resource_exhausted > 0) return kExitMemory;
    if (stats.queries_deadline_exceeded > 0) return kExitDeadline;
    if (stats.queries_shed > 0) return kExitShed;
    return 0;
  }

  const ndss::TextId id = static_cast<ndss::TextId>(flags.GetInt("text", 0));
  const uint32_t begin = static_cast<uint32_t>(flags.GetInt("begin", 0));
  const uint32_t len = static_cast<uint32_t>(flags.GetInt("len", 64));
  auto text = corpus->ReadText(id);
  if (!text.ok()) ndss::tools::Die(text.status().ToString());
  if (begin + len > text->size()) ndss::tools::Die("span out of range");
  std::vector<ndss::Token> query(text->begin() + begin,
                                 text->begin() + begin + len);
  const double noise = flags.GetDouble("noise", 0.0);
  if (noise > 0) {
    ndss::Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
    for (auto& token : query) {
      if (rng.NextBool(noise)) {
        token = static_cast<ndss::Token>(rng.Uniform(1 << 20));
      }
    }
  }
  return RunOne(*searcher, query, options, limits, verbose);
}
