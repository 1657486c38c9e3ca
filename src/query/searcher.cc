#include "query/searcher.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <span>

#include <chrono>

#include "common/logging.h"
#include "common/retry.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "index/inverted_index_reader.h"
#include "index/memory_index.h"
#include "query/list_cache.h"
#include "query/radix_sort.h"

namespace ndss {

namespace {

/// Reads a whole list under the options' retry policy. A failed attempt
/// rewinds `out` so the retry does not duplicate windows; governance errors
/// are not retryable (IsRetryableStatus) and propagate immediately.
Status ReadListRetrying(InvertedListSource* source, const ListMeta& meta,
                        std::vector<PostedWindow>* out, uint64_t* io_bytes,
                        const QueryContext* ctx, const RetryPolicy& policy) {
  const size_t before = out->size();
  auto op = [&]() -> Status {
    Status status = source->ReadList(meta, out, io_bytes, ctx);
    if (!status.ok()) out->resize(before);
    return status;
  };
  if (policy.max_attempts <= 1) return op();
  return RunWithRetry(policy, op, nullptr, ctx);
}

/// ReadWindowsForText counterpart of ReadListRetrying.
Status ReadWindowsForTextRetrying(InvertedListSource* source,
                                  const ListMeta& meta, TextId text,
                                  std::vector<PostedWindow>* out,
                                  uint64_t* io_bytes, const QueryContext* ctx,
                                  const RetryPolicy& policy) {
  const size_t before = out->size();
  auto op = [&]() -> Status {
    Status status = source->ReadWindowsForText(meta, text, out, io_bytes, ctx);
    if (!status.ok()) out->resize(before);
    return status;
  };
  if (policy.max_attempts <= 1) return op();
  return RunWithRetry(policy, op, nullptr, ctx);
}

}  // namespace

/// Mid-query degradation state, shared by all threads querying one
/// Searcher. A dropped function's source object stays alive (in-flight
/// queries may still hold a pointer to it from their snapshot); it is just
/// excluded from every snapshot taken after the drop.
struct Searcher::DegradedState {
  mutable std::mutex mu;
  std::vector<char> dropped;  ///< 1 = function dropped after a read failure
};

Searcher::Searcher(IndexMeta meta, SketchScheme scheme,
                   std::vector<std::unique_ptr<InvertedListSource>> sources)
    : meta_(meta),
      scheme_(std::move(scheme)),
      sources_(std::move(sources)),
      degraded_(std::make_unique<DegradedState>()) {
  degraded_->dropped.assign(sources_.size(), 0);
}

Searcher::Searcher(Searcher&&) noexcept = default;
Searcher& Searcher::operator=(Searcher&&) noexcept = default;
Searcher::~Searcher() = default;

std::vector<InvertedListSource*> Searcher::SnapshotSources() const {
  std::vector<InvertedListSource*> out(sources_.size(), nullptr);
  std::lock_guard<std::mutex> lock(degraded_->mu);
  for (size_t func = 0; func < sources_.size(); ++func) {
    if (sources_[func] != nullptr && degraded_->dropped[func] == 0) {
      out[func] = sources_[func].get();
    }
  }
  return out;
}

void Searcher::DropFunc(uint32_t func, const Status& cause) {
  std::lock_guard<std::mutex> lock(degraded_->mu);
  if (func >= degraded_->dropped.size() || degraded_->dropped[func] != 0) {
    return;  // concurrent query already dropped it
  }
  degraded_->dropped[func] = 1;
  NDSS_LOG(kWarning) << "degraded search: dropping hash function " << func
                     << ": " << cause.ToString();
}

Result<Searcher> Searcher::Open(const std::string& dir,
                                const SearcherOptions& options) {
  // A directory without the commit marker is an interrupted build: some
  // files may be missing or stale even if the ones present look healthy.
  NDSS_RETURN_NOT_OK(CheckIndexCommitMarker(dir));
  NDSS_ASSIGN_OR_RETURN(IndexMeta meta, IndexMeta::Load(dir));
  std::vector<std::unique_ptr<InvertedListSource>> sources;
  sources.reserve(meta.k);
  uint32_t healthy = 0;
  for (uint32_t func = 0; func < meta.k; ++func) {
    const std::string path = IndexMeta::InvertedIndexPath(dir, func);
    Result<InvertedIndexReader> reader = InvertedIndexReader::Open(path);
    if (!reader.ok()) {
      if (!options.allow_degraded) return reader.status();
      NDSS_LOG(kWarning) << "degraded open: dropping " << path << ": "
                         << reader.status().ToString();
      sources.push_back(nullptr);
      continue;
    }
    if (reader->func() != func) {
      // The file passed its checksums but belongs to another slot (e.g. it
      // was copied over the right file): its postings would be computed
      // with the wrong hash function, so it is as unusable as a corrupt
      // file and gets the same degraded treatment.
      const Status mismatch = Status::Corruption(
          "inverted index func id mismatch in " + path + ": file says " +
          std::to_string(reader->func()) + ", slot is " +
          std::to_string(func));
      if (!options.allow_degraded) return mismatch;
      NDSS_LOG(kWarning) << "degraded open: dropping " << path << ": "
                         << mismatch.ToString();
      sources.push_back(nullptr);
      continue;
    }
    sources.push_back(
        std::make_unique<InvertedIndexReader>(std::move(*reader)));
    ++healthy;
  }
  if (healthy == 0) {
    return Status::Corruption("no healthy inverted-index file in " + dir);
  }
  return Searcher(meta, meta.Scheme(), std::move(sources));
}

Result<Searcher> Searcher::InMemory(const Corpus& corpus,
                                    const IndexBuildOptions& options) {
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (options.t == 0) return Status::InvalidArgument("t must be >= 1");
  const SketchScheme scheme(options.sketch, options.k, options.seed);
  // C-MinHash: one shared hashing pass feeds all k per-function builds.
  const CorpusBaseRows base_rows =
      CorpusBaseRows::Build(scheme, corpus, options.num_threads);
  std::vector<std::unique_ptr<InvertedListSource>> sources;
  sources.reserve(options.k);
  for (uint32_t func = 0; func < options.k; ++func) {
    sources.push_back(std::make_unique<InMemoryInvertedIndex>(
        corpus, scheme, func, options.t, options.window_method, &base_rows));
  }
  IndexMeta meta;
  meta.k = options.k;
  meta.seed = options.seed;
  meta.t = options.t;
  meta.num_texts = corpus.num_texts();
  meta.total_tokens = corpus.total_tokens();
  meta.sketch = options.sketch;
  return Searcher(meta, scheme, std::move(sources));
}

Result<Searcher> Searcher::FromSources(
    const IndexMeta& meta,
    std::vector<std::unique_ptr<InvertedListSource>> sources) {
  if (meta.k == 0 || sources.size() != meta.k) {
    return Status::InvalidArgument("need one list source per hash function");
  }
  if (std::count(sources.begin(), sources.end(), nullptr) ==
      static_cast<std::ptrdiff_t>(sources.size())) {
    return Status::InvalidArgument("every list source is missing");
  }
  return Searcher(meta, meta.Scheme(), std::move(sources));
}

uint32_t Searcher::degraded_funcs() const {
  std::lock_guard<std::mutex> lock(degraded_->mu);
  uint32_t dropped = 0;
  for (size_t func = 0; func < sources_.size(); ++func) {
    if (sources_[func] == nullptr || degraded_->dropped[func] != 0) ++dropped;
  }
  return dropped;
}

uint64_t Searcher::TotalWindows() const {
  uint64_t total = 0;
  for (InvertedListSource* source : SnapshotSources()) {
    if (source == nullptr) continue;
    for (const ListMeta& meta : source->directory()) total += meta.count;
  }
  return total;
}

uint64_t Searcher::ListCountPercentile(double fraction) const {
  std::vector<uint64_t> counts;
  uint64_t total_windows = 0;
  for (InvertedListSource* source : SnapshotSources()) {
    if (source == nullptr) continue;
    for (const ListMeta& meta : source->directory()) {
      counts.push_back(meta.count);
      total_windows += meta.count;
    }
  }
  if (counts.empty() || total_windows == 0) return 0;
  // The contract is about windows, not lists: under a Zipfian token
  // distribution the few head lists hold most windows, so a list-counted
  // percentile would put far more than `fraction` of the windows into the
  // "long" class. Walk lists from the longest, accumulating their window
  // counts, and stop at the first threshold whose strictly-longer lists
  // hold at most `fraction` of all windows. Ties share a threshold, so the
  // walk moves one distinct count value at a time.
  std::sort(counts.begin(), counts.end(), std::greater<uint64_t>());
  const double budget = fraction * static_cast<double>(total_windows);
  uint64_t long_windows = 0;
  size_t i = 0;
  while (i < counts.size()) {
    const uint64_t count = counts[i];
    uint64_t group_windows = 0;
    size_t j = i;
    while (j < counts.size() && counts[j] == count) {
      group_windows += count;
      ++j;
    }
    if (static_cast<double>(long_windows + group_windows) > budget) {
      // Classifying this group long would exceed the budget; with the
      // threshold at `count`, the group (count == threshold) stays short.
      return count;
    }
    long_windows += group_windows;
    i = j;
  }
  return 0;  // every list can be long without exceeding the budget
}

namespace {

/// One text's windows, gathered for CollisionCount.
struct TextGroup {
  TextId text;
  std::vector<PostedWindow> windows;
};

/// Checks a pass-1 list as it is loaded, so a cached list is checked once,
/// not on every hit. The filter binary-searches lists by text, so a text id
/// out of the source's range or out of (text, l) order means the list is
/// corrupt.
Status CheckListTexts(std::span<const PostedWindow> list, uint64_t num_texts,
                      Token key) {
  for (size_t i = 0; i < list.size(); ++i) {
    const TextId text = list[i].text;
    if (text >= num_texts || (i > 0 && text < list[i - 1].text)) {
      return Status::Corruption(
          "pass 1: text id " + std::to_string(text) +
          (text >= num_texts ? " out of range" : " out of order") +
          " in list " + std::to_string(key));
    }
  }
  return Status::OK();
}

/// Texts found in at least `min_lists` of `lists` (each sorted by text),
/// ascending; `candidates` gets the number of distinct texts the filter
/// examined. Pigeonhole (T-occurrence) filter: a text in >= min_lists of
/// the L lists is in at least one of any L - min_lists + 1 of them, so
/// candidates come from that many shortest lists and are binary-searched
/// in the rest, shortest first, until they miss more than L - min_lists.
std::vector<TextId> TextsInAtLeast(
    const std::vector<std::span<const PostedWindow>>& lists,
    uint32_t min_lists, uint64_t* candidates) {
  std::vector<TextId> survivors;
  *candidates = 0;
  if (lists.size() < min_lists) return survivors;
  std::vector<std::span<const PostedWindow>> by_size = lists;
  std::stable_sort(by_size.begin(), by_size.end(),
                   [](std::span<const PostedWindow> a,
                      std::span<const PostedWindow> b) {
                     return a.size() < b.size();
                   });
  const size_t max_misses = lists.size() - min_lists;
  const size_t prefix = max_misses + 1;
  std::vector<TextId> texts;
  for (size_t list = 0; list < prefix; ++list) {
    for (size_t i = 0; i < by_size[list].size(); ++i) {
      if (i == 0 || by_size[list][i].text != by_size[list][i - 1].text) {
        texts.push_back(by_size[list][i].text);
      }
    }
  }
  std::sort(texts.begin(), texts.end());
  const auto by_text = [](const PostedWindow& w, TextId text) {
    return w.text < text;
  };
  size_t i = 0;
  while (i < texts.size()) {
    const TextId text = texts[i];
    size_t hits = 0;
    for (; i < texts.size() && texts[i] == text; ++i) ++hits;
    ++*candidates;
    size_t misses = prefix - hits;
    for (size_t list = prefix; list < by_size.size() && misses <= max_misses;
         ++list) {
      const auto it = std::lower_bound(by_size[list].begin(),
                                       by_size[list].end(), text, by_text);
      if (it == by_size[list].end() || it->text != text) ++misses;
    }
    if (misses <= max_misses) survivors.push_back(text);
  }
  return survivors;
}

}  // namespace

std::vector<MatchSpan> MergeRectangles(
    std::vector<TextMatchRectangle> rectangles, uint32_t t, uint32_t k) {
  std::vector<MatchSpan> spans;
  // Raw spans: a rectangle contains a sequence of length >= t iff its
  // longest sequence [x_begin, y_end] is long enough; the union of its
  // sequences covers exactly [x_begin, y_end].
  std::vector<MatchSpan> raw;
  raw.reserve(rectangles.size());
  for (const TextMatchRectangle& tr : rectangles) {
    const MatchRectangle& r = tr.rect;
    if (r.y_end < r.x_begin || r.y_end - r.x_begin + 1 < t) continue;
    raw.push_back(MatchSpan{tr.text, r.x_begin, r.y_end, r.collisions,
                            static_cast<double>(r.collisions) / k});
  }
  RadixSortByKey(&raw, [](const MatchSpan& s) {
    return (static_cast<uint64_t>(s.text) << 32) | s.begin;
  });
  for (const MatchSpan& span : raw) {
    if (!spans.empty() && spans.back().text == span.text &&
        span.begin <= spans.back().end + 1) {
      spans.back().end = std::max(spans.back().end, span.end);
      if (span.collisions > spans.back().collisions) {
        spans.back().collisions = span.collisions;
        spans.back().estimated_similarity = span.estimated_similarity;
      }
    } else {
      spans.push_back(span);
    }
  }
  return spans;
}

Result<SearchResult> Searcher::Search(std::span<const Token> query,
                                      const SearchOptions& options) {
  SearchResult result;
  NDSS_RETURN_NOT_OK(
      SearchInternal(query, options, {}, nullptr, &result));
  return result;
}

Status Searcher::Search(std::span<const Token> query,
                        const SearchOptions& options, const QueryContext* ctx,
                        SearchResult* result, const ScatterInputs& shared) {
  if (result == nullptr) {
    return Status::InvalidArgument("result must be non-null");
  }
  return SearchInternal(query, options, shared, ctx, result);
}

Result<std::vector<SearchResult>> Searcher::SearchBatch(
    const std::vector<std::vector<Token>>& queries,
    const SearchOptions& options, uint64_t cache_budget_bytes,
    size_t num_threads) {
  NDSS_ASSIGN_OR_RETURN(
      BatchResult batch, SearchBatch(queries, options, BatchLimits{},
                                     cache_budget_bytes, num_threads));
  // Preserve the ungoverned contract: all queries run, and with several
  // failures the lowest-index status is returned.
  for (const Status& status : batch.statuses) {
    if (!status.ok()) return status;
  }
  return std::move(batch.results);
}

Result<BatchResult> Searcher::SearchBatch(
    const std::vector<std::vector<Token>>& queries,
    const SearchOptions& options, const BatchLimits& limits,
    uint64_t cache_budget_bytes, size_t num_threads) {
  return RunGovernedBatch(
      queries, limits, /*server_cache=*/nullptr, cache_budget_bytes,
      num_threads,
      [&](std::span<const Token> query, const QueryContext& ctx,
          CrossQueryListCache* cache, SearchResult* result) {
        return SearchInternal(query, options, {cache, /*cache_owner=*/1},
                              &ctx, result);
      });
}

Result<BatchResult> RunGovernedBatch(
    const std::vector<std::vector<Token>>& queries, const BatchLimits& limits,
    CrossQueryListCache* server_cache, uint64_t cache_budget_bytes,
    size_t num_threads, const BatchQueryFn& run_query) {
  if (limits.batch_timeout_micros < 0 || limits.query_timeout_micros < 0) {
    return Status::InvalidArgument("batch timeouts must be >= 0");
  }
  BatchResult batch;
  batch.results.resize(queries.size());
  batch.statuses.assign(queries.size(), Status::OK());

  // Inflight budget: the batch's list cache + every live per-query arena.
  // Unlimited (accounting only) unless max_inflight_bytes is set.
  MemoryBudget inflight(limits.max_inflight_bytes, limits.inflight_parent);
  // Without a server-wide cache the batch gets its own, charged to the
  // inflight budget; declared after it, so it is destroyed (and gives its
  // bytes back) first.
  CrossQueryListCache* cache = server_cache;
  const bool own_cache = cache == nullptr && cache_budget_bytes > 0;
  std::optional<CrossQueryListCache> batch_cache;
  if (own_cache) cache = &batch_cache.emplace(cache_budget_bytes, &inflight);

  const bool has_batch_deadline = limits.batch_timeout_micros > 0;
  const QueryContext::Clock::time_point batch_deadline =
      QueryContext::Clock::now() +
      std::chrono::microseconds(limits.batch_timeout_micros);

  auto run_one = [&](size_t i) {
    // Admission control: past the batch deadline a queued query is shed
    // outright — running it could only steal time from nothing.
    if (has_batch_deadline &&
        QueryContext::Clock::now() >= batch_deadline) {
      batch.statuses[i] = Status::Cancelled("shed: batch deadline exceeded");
      return;
    }
    QueryContext ctx;
    if (limits.query_timeout_micros > 0) {
      ctx.set_deadline(QueryContext::Clock::now() +
                       std::chrono::microseconds(limits.query_timeout_micros));
    }
    if (has_batch_deadline &&
        limits.shed_policy == ShedPolicy::kCancelRunning &&
        (!ctx.has_deadline() || batch_deadline < ctx.deadline())) {
      // In-flight queries inherit the batch deadline: they stop at their
      // next checkpoint instead of finishing past it.
      ctx.set_deadline(batch_deadline);
    }
    MemoryBudget arena(limits.max_query_bytes, &inflight);
    ctx.set_memory_budget(&arena);
    SearchResult& result = batch.results[i];
    batch.statuses[i] = run_query(queries[i], ctx, cache, &result);
    // Hits on the batch's own cache count as cache_hits; shared_cache_hits
    // is kept for a server-wide cache.
    if (own_cache) {
      std::swap(result.stats.cache_hits, result.stats.shared_cache_hits);
    }
  };

  if (num_threads <= 1 || queries.size() <= 1) {
    for (size_t i = 0; i < queries.size(); ++i) run_one(i);
  } else {
    // Workers pull query indices from a shared counter, so a handful of
    // expensive queries cannot strand the rest of the batch on one thread.
    // Results land at their query's index; matches and spans are exactly
    // those of the sequential loop.
    std::atomic<size_t> next{0};
    const size_t workers = std::min(num_threads, queries.size());
    ThreadPool pool(workers);
    for (size_t w = 0; w < workers; ++w) {
      pool.Submit([&] {
        for (;;) {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= queries.size()) return;
          run_one(i);
        }
      });
    }
    pool.WaitIdle();
  }

  for (size_t i = 0; i < queries.size(); ++i) {
    const Status& status = batch.statuses[i];
    const SearchStats& stats = batch.results[i].stats;
    if (status.ok()) {
      ++batch.stats.queries_ok;
      if (stats.degraded_funcs > 0 || stats.degraded_shards > 0) {
        ++batch.stats.queries_degraded;
      }
    } else if (status.IsDeadlineExceeded()) {
      ++batch.stats.queries_deadline_exceeded;
    } else if (status.IsCancelled()) {
      ++batch.stats.queries_shed;
    } else if (status.IsResourceExhausted()) {
      ++batch.stats.queries_resource_exhausted;
    } else {
      ++batch.stats.queries_failed;
    }
    batch.stats.peak_query_bytes =
        std::max(batch.stats.peak_query_bytes, stats.peak_memory_bytes);
  }
  batch.stats.peak_inflight_bytes = inflight.peak();
  return batch;
}

Status Searcher::SearchInternal(std::span<const Token> query,
                                const SearchOptions& options,
                                const ScatterInputs& shared,
                                const QueryContext* ctx,
                                SearchResult* result) {
  constexpr uint32_t kNoFunc = 0xffffffffu;
  Stopwatch wall;
  *result = SearchResult();
  Status status;
  if (query.empty()) {
    status = Status::InvalidArgument("query sequence is empty");
  } else if (options.theta <= 0.0 || options.theta > 1.0) {
    status = Status::InvalidArgument("theta must be in (0, 1]");
  } else if (shared.sketch != nullptr &&
             shared.sketch->argmin_tokens.size() != meta_.k) {
    status = Status::InvalidArgument("shared sketch has " +
                                     std::to_string(
                                         shared.sketch->argmin_tokens.size()) +
                                     " functions, the index has " +
                                     std::to_string(meta_.k));
  }
  if (status.ok()) {
    // One sketch per query: a scattering caller computed it already, and a
    // degraded retry reuses it (a dropped function's entry is just unused).
    Stopwatch cpu;
    MinHashSketch computed;
    const MinHashSketch* sketch = shared.sketch;
    if (sketch == nullptr) {
      computed = ComputeSketch(scheme_, query.data(), query.size());
      sketch = &computed;
    }
    const double sketch_seconds = cpu.ElapsedSeconds();
    for (;;) {
      // A degraded retry starts over: stats of the aborted attempt would
      // double-count.
      *result = SearchResult();
      // Each attempt runs over an immutable snapshot: a function dropped by
      // a concurrent query mid-attempt does not change this attempt's view.
      const std::vector<InvertedListSource*> snapshot = SnapshotSources();
      uint32_t failed_func = kNoFunc;
      status = SearchOnce(*sketch, options, shared, snapshot, ctx,
                          &failed_func, result);
      if (status.ok() || failed_func == kNoFunc || !options.allow_degraded) {
        break;
      }
      // A list failed its checksum mid-query. Drop the whole function — its
      // file is corrupt — and answer with the survivors at rescaled β.
      DropFunc(failed_func, status);
    }
    result->stats.cpu_seconds += sketch_seconds;
  }
  result->stats.wall_seconds = wall.ElapsedSeconds();
  if (ctx != nullptr && ctx->memory_budget() != nullptr) {
    result->stats.peak_memory_bytes = ctx->memory_budget()->peak();
  }
  return status;
}

Status Searcher::SearchOnce(const MinHashSketch& sketch,
                            const SearchOptions& options,
                            const ScatterInputs& shared,
                            const std::vector<InvertedListSource*>& sources,
                            const QueryContext* ctx, uint32_t* failed_func,
                            SearchResult* result_out) {
  const uint32_t k = meta_.k;
  const uint32_t dropped = static_cast<uint32_t>(
      std::count(sources.begin(), sources.end(), nullptr));
  if (dropped > 0 && !options.allow_degraded) {
    return Status::Corruption(
        std::to_string(dropped) +
        " of " + std::to_string(k) +
        " index files are corrupt or missing; set "
        "SearchOptions::allow_degraded to search with the survivors");
  }
  // Effective family size k' = k - dropped. The hash family's seeds are
  // chained, so the surviving functions compute exactly what an index built
  // with fewer functions would; β is rescaled to ⌈θk'⌉ accordingly.
  const uint32_t k_eff = k - dropped;
  if (k_eff == 0) {
    return Status::Corruption("every index file is corrupt or missing");
  }
  const uint32_t beta = std::min<uint32_t>(
      k_eff, static_cast<uint32_t>(std::ceil(options.theta * k_eff)));

  SearchResult& result = *result_out;
  result.stats.degraded_funcs = dropped;
  // Per-query IO accumulator, threaded through every list read: a global
  // bytes_read() delta would also count concurrent queries' reads.
  uint64_t io_bytes = 0;
  // Arena for the query's working set (decoded lists, candidate groups).
  // Scope-bound: released when this attempt returns, success or not.
  ScopedMemoryCharge arena(ctx);
  // Partial stats survive an early governance exit: whatever IO happened is
  // recorded no matter which return path is taken.
  struct IoBytesGuard {
    const uint64_t& bytes;
    SearchStats& stats;
    ~IoBytesGuard() { stats.io_bytes = bytes; }
  } io_guard{io_bytes, result.stats};

  // Cross-query cache hits are published to the cache's counters once per
  // attempt, on every return path, rather than once per list: one shared
  // atomic bumped k times a query from every thread is a contention point
  // of its own.
  struct HitsGuard {
    CrossQueryListCache* cache;
    const uint32_t& hits;
    ~HitsGuard() {
      if (cache != nullptr && hits > 0) cache->RecordHits(hits);
    }
  } hits_guard{shared.cache_enabled() ? shared.cache : nullptr,
               result.stats.shared_cache_hits};

  Stopwatch cpu;
  // Classify the k lists. Absent keys contribute nothing and count as
  // scanned-short (they cost no IO). Under prefix filtering at most
  // beta - 1 lists may be skipped, or the first-pass threshold would drop
  // to zero; if more exceed the length threshold, the shortest of them are
  // demoted to the scan set.
  struct ListRef {
    uint32_t func;
    const ListMeta* meta;
  };
  std::vector<ListRef> short_lists;
  std::vector<ListRef> long_lists;
  std::vector<const ListMeta*> metas(k, nullptr);
  for (uint32_t func = 0; func < k; ++func) {
    if (sources[func] == nullptr) continue;  // dropped (degraded)
    metas[func] = sources[func]->FindList(sketch.argmin_tokens[func]);
    if (metas[func] == nullptr) ++result.stats.empty_lists;
  }
  if (options.use_prefix_filter && options.use_cost_model) {
    // Cost-model selection of the deferred lists.
    std::vector<uint64_t> counts(k, 0);
    for (uint32_t func = 0; func < k; ++func) {
      if (metas[func] != nullptr) counts[func] = metas[func]->count;
    }
    const std::vector<bool> deferred = SelectDeferredLists(
        counts, beta, static_cast<double>(sizeof(PostedWindow)),
        options.cost_model);
    for (uint32_t func = 0; func < k; ++func) {
      if (metas[func] == nullptr) continue;
      if (deferred[func]) {
        long_lists.push_back({func, metas[func]});
      } else {
        short_lists.push_back({func, metas[func]});
      }
    }
  } else {
    for (uint32_t func = 0; func < k; ++func) {
      if (metas[func] == nullptr) continue;
      if (options.use_prefix_filter &&
          metas[func]->count > options.long_list_threshold) {
        long_lists.push_back({func, metas[func]});
      } else {
        short_lists.push_back({func, metas[func]});
      }
    }
  }
  if (long_lists.size() > beta - 1) {
    std::sort(long_lists.begin(), long_lists.end(),
              [](const ListRef& a, const ListRef& b) {
                return a.meta->count < b.meta->count;
              });
    // Demote the shortest overflowing lists in one splice (erasing the
    // front one element at a time is quadratic in the overflow).
    const size_t demote = long_lists.size() - (beta - 1);
    short_lists.insert(short_lists.end(), long_lists.begin(),
                       long_lists.begin() + demote);
    long_lists.erase(long_lists.begin(), long_lists.begin() + demote);
  }
  result.stats.short_lists = static_cast<uint32_t>(short_lists.size());
  result.stats.long_lists = static_cast<uint32_t>(long_lists.size());
  const uint32_t beta1 = beta - static_cast<uint32_t>(long_lists.size());
  // θ ∈ (0, 1] makes β = ⌈θk'⌉ >= 1, and the demotion above caps the long
  // set at β - 1, so β1 >= 1 too. The sweep kernels reject a zero threshold
  // outright (it would mean "every text matches"), so verify the invariant
  // here — once, where both thresholds are computed — instead of relying on
  // each CollisionCount call site.
  if (beta == 0 || beta1 == 0) {
    return Status::Internal(
        "computed a zero collision threshold (beta=" + std::to_string(beta) +
        ", beta1=" + std::to_string(beta1) + ", k_eff=" +
        std::to_string(k_eff) + ")");
  }
  // First governance checkpoint, after list classification: even a query
  // that arrives with an expired deadline reports which lists it would
  // have touched (the partial-stats contract).
  NDSS_RETURN_NOT_OK(CheckQueryContext(ctx));

  // Pass 1: scan the short lists fully, through the list cache if one is
  // enabled (a list is read once while it stays cached). A cached list is
  // read in place, `pinned` keeping its entry alive; a direct read lands in
  // the query's own buffer for that list.
  Stopwatch io;
  std::vector<std::span<const PostedWindow>> lists(short_lists.size());
  std::vector<std::shared_ptr<const void>> pinned;
  pinned.reserve(short_lists.size());
  std::vector<std::vector<PostedWindow>> owned(short_lists.size());
  // Reads and checks one whole list.
  const auto read_list = [&](const ListRef& ref,
                             std::vector<PostedWindow>* out) -> Status {
    out->reserve(ref.meta->count);
    NDSS_RETURN_NOT_OK(ReadListRetrying(sources[ref.func], *ref.meta, out,
                                        &io_bytes, ctx, options.read_retry));
    return CheckListTexts(*out, meta_.num_texts, ref.meta->key);
  };
  for (size_t list = 0; list < short_lists.size(); ++list) {
    const ListRef& ref = short_lists[list];
    // Per-list checkpoint, plus the arena charge for the list's `count`
    // windows (a cached list is read in place but charged alike, so the
    // arena does not depend on cache state).
    NDSS_RETURN_NOT_OK(CheckQueryContext(ctx));
    NDSS_RETURN_NOT_OK(
        arena.Charge(ref.meta->count * sizeof(PostedWindow)));
    Status read;
    if (shared.cache_enabled()) {
      CrossQueryListCache* const cache = shared.cache;
      const CrossQueryListCache::Key key{
          shared.cache_owner,
          (static_cast<uint64_t>(ref.func) << 32) | ref.meta->key};
      std::shared_ptr<CrossQueryListCache::Entry> entry =
          cache->GetOrCreate(key);
      bool loaded_here = false;
      std::call_once(entry->once, [&] {
        loaded_here = true;
        cache->RecordMiss();
        entry->status = read_list(ref, &entry->windows);
        if (!entry->status.ok()) return;
        entry->bytes = entry->windows.size() * sizeof(PostedWindow) +
                       CrossQueryListCache::kEntryOverhead;
        entry->stored = true;
        // Retention is best-effort: a full budget serves this query (and
        // its waiters) from the loaded entry without keeping it.
        cache->Commit(key, entry);
      });
      if (entry->stored) {
        lists[list] = entry->windows;
        pinned.push_back(std::move(entry));
        // The hit belongs to the query that avoided the read; the loader
        // already counted the miss and its io_bytes. HitsGuard publishes it.
        if (!loaded_here) ++result.stats.shared_cache_hits;
        continue;
      }
      // Failed loads never stay cached: drop the key (iff it still maps to
      // this entry) so a later query retries the read.
      cache->Abandon(key, entry);
      // Another query's deadline, cancel or budget aborting the load says
      // nothing about the list: read it directly. A bad list fails every
      // query that touched its entry the same way, so degraded retries
      // agree on which function to drop.
      if (loaded_here || !IsGovernanceStatus(entry->status)) {
        read = entry->status;
      }
    }
    if (read.ok()) {
      read = read_list(ref, &owned[list]);
      lists[list] = owned[list];
    }
    if (!read.ok()) {
      if (read.IsCorruption()) *failed_func = ref.func;
      return read;
    }
  }
  uint64_t pass1_windows = 0;
  for (std::span<const PostedWindow> windows : lists) {
    pass1_windows += windows.size();
  }
  result.stats.io_seconds += io.ElapsedSeconds();
  result.stats.windows_scanned += pass1_windows;

  cpu.Restart();
  // Gathered groups hold at most every pass-1 window.
  NDSS_RETURN_NOT_OK(arena.Charge(pass1_windows * sizeof(PostedWindow)));
  // Within one hash function a text's compact windows are pairwise
  // disjoint, so a sequence collides at most once per list: a text found
  // in fewer than beta1 short lists cannot reach beta1 collisions and is
  // dropped without running Algorithm 4.
  const std::vector<TextId> survivors =
      TextsInAtLeast(lists, beta1, &result.stats.pass1_candidates);
  const auto by_text = [](const PostedWindow& a, const PostedWindow& b) {
    return a.text < b.text;
  };
  std::vector<MatchRectangle> rects;
  std::vector<TextGroup> candidates;
  TextGroup swept;
  for (TextId text : survivors) {
    // The text's run from each list, stably sorted by l: same-l windows
    // keep list order, so CollisionCount's input is deterministic.
    swept.text = text;
    swept.windows.clear();
    const PostedWindow probe{text, 0, 0, 0};
    for (std::span<const PostedWindow> windows : lists) {
      const auto [lo, hi] =
          std::equal_range(windows.begin(), windows.end(), probe, by_text);
      swept.windows.insert(swept.windows.end(), lo, hi);
    }
    std::stable_sort(swept.windows.begin(), swept.windows.end(),
                     [](const PostedWindow& a, const PostedWindow& b) {
                       return a.l < b.l;
                     });
    ++result.stats.groups_swept;
    rects.clear();
    NDSS_RETURN_NOT_OK(CollisionCount(swept.windows, beta1, &rects, ctx));
    if (rects.empty()) continue;
    if (long_lists.empty()) {
      // No second pass: these rectangles are final.
      for (const MatchRectangle& r : rects) {
        result.rectangles.push_back({text, r});
      }
    } else {
      candidates.push_back(swept);
    }
  }
  result.stats.cpu_seconds += cpu.ElapsedSeconds();

  // Pass 2: candidates probe the long lists through zone maps, then rerun
  // CollisionCount with the full threshold beta.
  result.stats.candidate_texts = candidates.size();
  for (TextGroup& group : candidates) {
    // Per-candidate checkpoint (probes themselves re-check per segment).
    NDSS_RETURN_NOT_OK(CheckQueryContext(ctx));
    io.Restart();
    for (const ListRef& ref : long_lists) {
      const size_t before = group.windows.size();
      Status read = ReadWindowsForTextRetrying(sources[ref.func], *ref.meta,
                                               group.text, &group.windows,
                                               &io_bytes, ctx,
                                               options.read_retry);
      if (!read.ok()) {
        if (read.IsCorruption()) *failed_func = ref.func;
        return read;
      }
      NDSS_RETURN_NOT_OK(arena.Charge((group.windows.size() - before) *
                                      sizeof(PostedWindow)));
    }
    result.stats.io_seconds += io.ElapsedSeconds();
    cpu.Restart();
    result.stats.windows_scanned += group.windows.size();
    rects.clear();
    NDSS_RETURN_NOT_OK(CollisionCount(group.windows, beta, &rects, ctx));
    for (const MatchRectangle& r : rects) {
      result.rectangles.push_back({group.text, r});
    }
    result.stats.cpu_seconds += cpu.ElapsedSeconds();
  }

  // Length clamp + merged disjoint spans (the paper's Remark).
  cpu.Restart();
  NDSS_RETURN_NOT_OK(CheckQueryContext(ctx));
  if (options.merge_matches) {
    result.spans = MergeRectangles(result.rectangles, meta_.t, k_eff);
  }
  result.stats.cpu_seconds += cpu.ElapsedSeconds();
  return Status::OK();
}

}  // namespace ndss
