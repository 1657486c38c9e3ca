#include "shard/sharded_searcher.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "index/index_merger.h"
#include "shard/health_monitor.h"

namespace ndss {

namespace {

std::string NormalizePath(const std::string& path) {
  std::string normalized =
      std::filesystem::path(path).lexically_normal().string();
  while (normalized.size() > 1 && normalized.back() == '/') {
    normalized.pop_back();
  }
  return normalized;
}

/// Element-wise stats merge across shards. Counters sum (each shard did
/// that work); degraded_funcs takes the worst shard (the answer's fidelity
/// floor); wall_seconds takes the slowest shard (the scatter runs them
/// concurrently) and is overwritten by the caller's own stopwatch at the
/// top level; peak_memory_bytes sums because the shard arenas are live
/// concurrently.
void AccumulateStats(const SearchStats& in, SearchStats* out) {
  out->io_bytes += in.io_bytes;
  out->short_lists += in.short_lists;
  out->long_lists += in.long_lists;
  out->empty_lists += in.empty_lists;
  out->cache_hits += in.cache_hits;
  out->shared_cache_hits += in.shared_cache_hits;
  out->windows_scanned += in.windows_scanned;
  out->pass1_candidates += in.pass1_candidates;
  out->groups_swept += in.groups_swept;
  out->candidate_texts += in.candidate_texts;
  out->degraded_funcs = std::max(out->degraded_funcs, in.degraded_funcs);
  out->io_seconds += in.io_seconds;
  out->cpu_seconds += in.cpu_seconds;
  out->wall_seconds = std::max(out->wall_seconds, in.wall_seconds);
  out->peak_memory_bytes += in.peak_memory_bytes;
}

/// The indices of one scatter, shared by its caller and the pool helpers
/// it offers. Held by shared_ptr: a helper the pool starts only after the
/// caller has run every index finds nothing to claim and touches nothing
/// but this block, so the caller need not wait for it.
struct ScatterJob {
  size_t n = 0;
  void* fn = nullptr;                       ///< the caller's callable
  void (*invoke)(void* fn, size_t i) = nullptr;
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable all_done;
  size_t done = 0;  ///< indices finished, guarded by `mu`

  /// Claims and runs indices until none is left.
  void Drain() {
    size_t ran = 0;
    for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;
         ++ran) {
      invoke(fn, i);
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(mu);
    done += ran;
    if (done == n) all_done.notify_all();
  }
};

/// Runs fn(0..n-1) and returns when all n are done. The caller always does
/// the work itself, in index order. Before each index it asks `alone()`;
/// the first time that holds with at least two indices left, it offers up
/// to one pool task per remaining index but one, and the caller and those
/// helpers claim the rest from a shared counter. The caller then waits
/// only for indices a helper actually claimed. An index therefore never
/// waits in the pool's queue behind other work, and until helpers are
/// offered there is no handoff, allocation or wakeup at all.
template <typename Fn, typename Alone>
void CallerRunsScatter(ThreadPool* pool, size_t n, Fn& fn,
                       const Alone& alone) {
  for (size_t i = 0; i < n; ++i) {
    if (n - i >= 2 && alone()) {
      auto job = std::make_shared<ScatterJob>();
      job->n = n;
      job->fn = &fn;
      job->invoke = [](void* f, size_t j) { (*static_cast<Fn*>(f))(j); };
      job->next.store(i, std::memory_order_relaxed);
      job->done = i;
      const size_t helpers = std::min(n - i - 1, pool->num_threads());
      for (size_t h = 0; h < helpers; ++h) {
        pool->Submit([job] { job->Drain(); });
      }
      job->Drain();
      std::unique_lock<std::mutex> lock(job->mu);
      job->all_done.wait(lock, [&] { return job->done == job->n; });
      return;
    }
    fn(i);
  }
}

/// One shard's contribution to one query.
struct ShardOutcome {
  Status status;
  SearchResult result;
  bool ran = false;  ///< false = shard was already dropped at snapshot time
  bool excluded = false;  ///< failed and left out of this query's answer
};

/// Adds one source's outcome to a query's merged answer: its stats, its
/// matches with local text ids shifted by `offset` into global ids, and its
/// failure, kept if it is the first governance stop or the first hard error.
void MergeOutcome(ShardOutcome& sub, TextId offset, SearchResult* result,
                  Status* governance, Status* hard_error) {
  AccumulateStats(sub.result.stats, &result->stats);
  for (TextMatchRectangle& tr : sub.result.rectangles) {
    tr.text += offset;
    result->rectangles.push_back(tr);
  }
  for (MatchSpan& span : sub.result.spans) {
    span.text += offset;
    result->spans.push_back(span);
  }
  if (sub.status.ok()) return;
  Status* first = IsGovernanceStatus(sub.status) ? governance : hard_error;
  if (first->ok()) *first = sub.status;
}

/// Mints the immutable-source ids the cross-query list cache keys on. Ids
/// are process-global and never reused: every ShardHandle (one opened
/// Searcher over one immutable sealed shard) and every published delta
/// snapshot gets a fresh one, so a cache entry can only be found by queries
/// running against the exact source that loaded it — staleness is
/// impossible by construction (see CrossQueryListCache).
uint64_t NextCacheOwnerId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// One shard of the set. Shared across topology snapshots (an attach or
/// detach reuses the untouched shards' handles), so in-flight queries keep
/// a detached shard alive until their snapshot dies. `dropped` is the
/// shard-level analogue of Searcher's per-function degradation: set once on
/// a corruption, never cleared, and checked when a query snapshots its
/// runnable set.
struct ShardHandle {
  std::string entry;  ///< manifest entry, as stored
  std::string dir;    ///< resolved index directory
  IndexMeta meta;
  std::optional<Searcher> searcher;  ///< absent when dropped at open
  std::atomic<bool> dropped{false};

  /// This handle's identity in the cross-query list cache. A reopened or
  /// replaced shard gets a new handle and therefore a new id; the old id's
  /// entries are erased when the old handle leaves the topology.
  uint64_t cache_owner = NextCacheOwnerId();

  /// Health state machine, present iff enable_self_healing. Shared with
  /// the HealthMonitor's probe targets and carried over to the replacement
  /// handle on reopen, so drop/quarantine/reopen counters span the shard's
  /// whole service life rather than one handle's.
  std::shared_ptr<ShardHealthTracker> health;
};

/// An immutable topology: the shard list of one epoch plus the
/// concatenation offsets that define global text ids. Queries hold one via
/// shared_ptr for their whole run, so AttachShard / DetachShard never
/// change a query's view mid-flight.
///
/// `delta` is the streaming-ingestion memtable: an in-memory pseudo-shard
/// that always sits after the sealed shards, so its texts take the ids from
/// `delta_offset` up and the concatenation order (and therefore every
/// sealed text's global id) is unaffected by its comings and goings.
struct Topology {
  uint64_t epoch = 0;
  std::vector<std::shared_ptr<ShardHandle>> shards;
  std::vector<TextId> offsets;
  IndexMeta combined;  ///< sealed shards + delta

  /// The set's one sketch family (SameSketchFamily holds for every shard
  /// and the delta), so a query's sketch is computed once per topology
  /// snapshot and shared by every source.
  std::optional<SketchScheme> scheme;

  std::shared_ptr<Searcher> delta;  ///< nullptr when no memtable is set
  TextId delta_offset = 0;          ///< first global text id of the delta
  uint64_t applied_seqno = 0;       ///< WAL watermark of the sealed shards

  /// Cache identity of `delta` (0 when no delta). Unlike a sealed shard the
  /// memtable is mutable, so every SetDelta/PromoteDelta publish mints a
  /// fresh id — entries loaded from an older delta snapshot become
  /// unreachable the moment a new one is installed.
  uint64_t delta_cache_owner = 0;
};

std::shared_ptr<const Topology> BuildTopology(
    uint64_t epoch, std::vector<std::shared_ptr<ShardHandle>> shards,
    std::shared_ptr<Searcher> delta, uint64_t delta_cache_owner,
    uint64_t applied_seqno) {
  auto topo = std::make_shared<Topology>();
  topo->epoch = epoch;
  topo->shards = std::move(shards);
  topo->delta = std::move(delta);
  topo->delta_cache_owner = topo->delta != nullptr ? delta_cache_owner : 0;
  topo->applied_seqno = applied_seqno;
  uint64_t num_texts = 0;
  uint64_t total_tokens = 0;
  for (const auto& shard : topo->shards) {
    topo->offsets.push_back(static_cast<TextId>(num_texts));
    num_texts += shard->meta.num_texts;
    total_tokens += shard->meta.total_tokens;
  }
  topo->delta_offset = static_cast<TextId>(num_texts);
  topo->combined = topo->shards.front()->meta;
  topo->scheme.emplace(topo->combined.Scheme());
  if (topo->delta != nullptr) {
    num_texts += topo->delta->meta().num_texts;
    total_tokens += topo->delta->meta().total_tokens;
  }
  topo->combined.num_texts = num_texts;
  topo->combined.total_tokens = total_tokens;
  return topo;
}

/// Index of the delta's ShardOutcome in a query's sub-outcome vector (one
/// slot past the sealed shards).
size_t DeltaSlot(const Topology& topo) { return topo.shards.size(); }

size_t NumSlots(const Topology& topo) {
  return topo.shards.size() + (topo.delta != nullptr ? 1 : 0);
}

/// The slots a query scatters to: every shard not yet dropped, then the
/// delta. Empty when every shard is dropped and there is no delta.
std::vector<size_t> RunnableSlots(const Topology& topo) {
  std::vector<size_t> runnable;
  for (size_t i = 0; i < topo.shards.size(); ++i) {
    if (topo.shards[i]->searcher.has_value() &&
        !topo.shards[i]->dropped.load(std::memory_order_relaxed)) {
      runnable.push_back(i);
    }
  }
  if (topo.delta != nullptr) runnable.push_back(DeltaSlot(topo));
  return runnable;
}

}  // namespace

struct ShardedSearcher::State {
  std::string set_dir;
  ShardedSearcherOptions options;
  /// Runs scatter helpers only (see Scatter); a query's caller always
  /// runs shards itself.
  std::unique_ptr<ThreadPool> pool;

  /// Scatter calls in flight on this searcher, Search and batch queries
  /// alike. A scatter offers the pool helpers only once it is alone.
  std::atomic<size_t> scatters_in_flight{0};

  /// Guards the snapshot pointer only; held for the duration of a pointer
  /// copy or swap, never across IO.
  mutable std::mutex mu;
  std::shared_ptr<const Topology> topology;

  /// Serializes topology changes (manifest IO happens under this, outside
  /// `mu`, so queries never block on a disk write).
  std::mutex admin_mu;

  /// Cross-query list cache, absent until EnableListCache. The atomic
  /// mirror lets queries grab it with one acquire load (enabling races
  /// benignly with in-flight queries: they just miss the cache once); the
  /// unique_ptr owns it until the State dies. Destroying the State must
  /// not overlap an in-flight call (the class contract), and the monitor —
  /// the only background toucher — is declared after these members, so it
  /// is joined before the cache goes away.
  std::unique_ptr<CrossQueryListCache> list_cache_store;
  std::atomic<CrossQueryListCache*> list_cache{nullptr};

  /// Garbage-collects the cache entries of retired sources. Called (with
  /// the owner ids a topology change just made unreachable) after the swap.
  /// This is eager reclamation, not correctness: owner ids are never
  /// reused, so whatever an in-flight query on the old snapshot still
  /// loads under a retired id is unreachable by every later query and ages
  /// out of the cache on its own.
  void RetireCacheOwners(std::initializer_list<uint64_t> owners) {
    CrossQueryListCache* cache = ServerCache();
    if (cache == nullptr) return;
    for (uint64_t owner : owners) {
      if (owner != 0) cache->EraseOwner(owner);
    }
  }

  CrossQueryListCache* ServerCache() const {
    return list_cache.load(std::memory_order_acquire);
  }

  std::shared_ptr<const Topology> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu);
    return topology;
  }

  void Swap(std::shared_ptr<const Topology> next) {
    std::lock_guard<std::mutex> lock(mu);
    topology = std::move(next);
  }

  /// Runs one query over `topo`: computes its sketch once, searches every
  /// shard not yet dropped (and the delta) with it, each shard reading its
  /// lists through `cache` under its own owner id (nullptr = uncached),
  /// then gathers. Search and every query of a SearchBatch come through
  /// here. The calling thread runs shard searches itself; pool helpers
  /// join it only once no other scatter is in flight (see Scatter).
  Status Scatter(const Topology& topo, std::span<const Token> query,
                 const SearchOptions& options, const QueryContext* ctx,
                 CrossQueryListCache* cache, SearchResult* result);
  void RecordShardOutcome(ShardHandle& shard, ShardOutcome& sub);
  Status GatherQuery(const Topology& topo, std::vector<ShardOutcome>& subs,
                     SearchResult* result);

  /// Probe targets for the HealthMonitor: every quarantined shard of the
  /// current topology (kProbing shards are mid-probe already).
  std::vector<ProbeTarget> QuarantinedTargets() const {
    const std::shared_ptr<const Topology> topo = Snapshot();
    std::vector<ProbeTarget> targets;
    for (const auto& shard : topo->shards) {
      if (shard->health != nullptr &&
          shard->health->state() == ShardHealth::kQuarantined) {
        targets.push_back(ProbeTarget{shard->dir, shard->health});
      }
    }
    return targets;
  }

  /// Installs a probed-healthy Searcher for the quarantined shard at `dir`,
  /// called by the HealthMonitor after ProbeShard succeeds. A fresh handle
  /// (same tracker, so counters persist) replaces the dropped one and the
  /// topology swaps at the SAME epoch — reopening is not a durable topology
  /// change, the manifest never stopped listing the shard. Serializes with
  /// Attach/Detach via admin_mu; in-flight queries finish on their
  /// snapshot, exactly as for attach/detach.
  Status ReopenShard(const std::string& dir, Searcher searcher);

  /// Background prober, present iff enable_self_healing. Declared last so
  /// it is destroyed (joined) first, while the topology, locks, and pool
  /// its callbacks use are still alive.
  std::unique_ptr<HealthMonitor> monitor;
};

Status ShardedSearcher::State::ReopenShard(const std::string& dir,
                                           Searcher searcher) {
  std::lock_guard<std::mutex> admin(admin_mu);
  const std::shared_ptr<const Topology> topo = Snapshot();
  size_t found = topo->shards.size();
  for (size_t i = 0; i < topo->shards.size(); ++i) {
    if (topo->shards[i]->dir == dir) {
      found = i;
      break;
    }
  }
  if (found == topo->shards.size()) {
    return Status::NotFound("shard " + dir +
                            " left the topology while being probed");
  }
  const std::shared_ptr<ShardHandle>& old = topo->shards[found];
  if (old->health == nullptr ||
      old->health->state() != ShardHealth::kProbing) {
    // The dir was detached and re-attached (fresh handle, fresh tracker)
    // while the probe ran; the probing tracker is an orphan now.
    return Status::NotFound("shard " + dir +
                            " was replaced while being probed");
  }
  const IndexMeta& meta = searcher.meta();
  if (meta.num_texts != old->meta.num_texts ||
      !SameSketchFamily(meta, old->meta)) {
    // The shard was rebuilt in place with different contents or parameters;
    // swapping it in would shift every later shard's id range (or change
    // the hash family). Operators must detach + attach for that.
    return Status::InvalidArgument(
        "shard " + dir + " no longer matches its pre-quarantine meta");
  }
  auto handle = std::make_shared<ShardHandle>();
  handle->entry = old->entry;
  handle->dir = old->dir;
  handle->meta = old->meta;
  handle->searcher.emplace(std::move(searcher));
  handle->health = old->health;
  std::vector<std::shared_ptr<ShardHandle>> shards = topo->shards;
  shards[found] = std::move(handle);
  Swap(BuildTopology(topo->epoch, std::move(shards), topo->delta,
                     topo->delta_cache_owner, topo->applied_seqno));
  RetireCacheOwners({old->cache_owner});
  return Status::OK();
}

/// A sealed shard's health bookkeeping for one sub-query, run by the
/// thread that ran it as soon as it returns. Recording here rather than at
/// gather keeps each shard's outcomes in the order they happened: a
/// failure is not recorded after a later query's success just because its
/// own query still had other shards to search.
///
/// Under enable_self_healing ANY non-governance failure excludes the shard
/// from this query's answer (survivors respond, degraded_shards counts it
/// honestly) and is reported to the shard's health tracker, which decides
/// whether the shard leaves the serving set — Corruption immediately,
/// transient errors once a breaker trips. Without self-healing, a
/// Corruption is isolated (the handle is dropped for good) when
/// allow_shard_drop is on. Excluded shards' output is not trusted at all.
void ShardedSearcher::State::RecordShardOutcome(ShardHandle& shard,
                                                ShardOutcome& sub) {
  if (!sub.status.ok() && options.enable_self_healing &&
      !IsGovernanceStatus(sub.status)) {
    if (shard.health->RecordFailure(sub.status, SteadyNowMicros())) {
      shard.dropped.store(true, std::memory_order_relaxed);
      NDSS_LOG(kWarning) << "self-healing: quarantining shard " << shard.dir
                         << ": " << sub.status.ToString();
      if (monitor != nullptr) monitor->Kick();
    } else {
      // Suspect (or concurrently quarantined): excluded from this answer
      // only. Storms hit this line per query per shard, so rate-limit.
      NDSS_LOG_EVERY_SECONDS(kWarning, 1.0)
          << "degraded serving: excluding shard " << shard.dir
          << " from this query: " << sub.status.ToString();
    }
    shard.health->RecordDrop();
    sub.excluded = true;
    return;
  }
  if (sub.status.IsCorruption() && options.allow_shard_drop) {
    // Shard-level fault isolation: the shard is lying about its data, so
    // nothing it produced for this query is trustworthy. Survivors answer
    // with the shard's id range gone dark.
    if (!shard.dropped.exchange(true)) {
      NDSS_LOG(kWarning) << "degraded serving: dropping shard " << shard.dir
                         << ": " << sub.status.ToString();
    }
    sub.excluded = true;
    return;
  }
  if (sub.status.ok() && shard.health != nullptr) {
    shard.health->RecordSuccess();
  }
}

/// Merges the per-shard outcomes of one query into `*result`, remapping
/// local text ids by each shard's concatenation offset. Shards are visited
/// in topology order and their texts occupy disjoint ascending id ranges,
/// so the concatenated rectangles and spans keep the single-searcher's
/// text-ascending order — this is what makes the merged output bit-
/// identical to a search over the merged index.
///
/// Shards excluded by RecordShardOutcome (or dropped before the query
/// started) contribute nothing. Otherwise hard errors beat governance
/// statuses, and within a class the lowest shard index wins. Failed shards
/// still contribute their partial stats (and partial matches), honouring
/// the partial-stats contract.
Status ShardedSearcher::State::GatherQuery(const Topology& topo,
                                           std::vector<ShardOutcome>& subs,
                                           SearchResult* result) {
  Status hard_error;
  Status governance;
  uint32_t excluded = 0;
  for (size_t i = 0; i < topo.shards.size(); ++i) {
    if (!subs[i].ran) {
      ++excluded;  // dropped before this query started
      if (topo.shards[i]->health != nullptr) {
        topo.shards[i]->health->RecordDrop();
      }
      continue;
    }
    if (subs[i].excluded) {
      ++excluded;
      continue;
    }
    MergeOutcome(subs[i], topo.offsets[i], result, &governance, &hard_error);
  }
  // The delta memtable contributes last (its texts own the highest ids, so
  // appending keeps the text-ascending output order). It is in-memory and
  // has no health tracker: it cannot fail with storage faults, so any
  // non-governance error is a hard error, never a degraded exclusion.
  if (topo.delta != nullptr && subs[DeltaSlot(topo)].ran) {
    MergeOutcome(subs[DeltaSlot(topo)], topo.delta_offset, result,
                 &governance, &hard_error);
  }
  result->stats.degraded_shards = excluded;
  if (excluded == topo.shards.size() && topo.delta == nullptr) {
    return Status::Corruption("every shard of the set is dropped");
  }
  if (!hard_error.ok()) return hard_error;
  return governance;
}

Status ShardedSearcher::State::Scatter(const Topology& topo,
                                       std::span<const Token> query,
                                       const SearchOptions& search_options,
                                       const QueryContext* ctx,
                                       CrossQueryListCache* cache,
                                       SearchResult* result) {
  *result = SearchResult();
  Stopwatch wall;
  std::vector<ShardOutcome> subs(NumSlots(topo));
  // Checked per query, so a shard dropped by an earlier query of the same
  // batch sits out the batch's later ones.
  const std::vector<size_t> runnable = RunnableSlots(topo);
  if (runnable.empty()) {
    return Status::Corruption("every shard of the set is dropped");
  }
  // One sketch per query, shared by every source (an empty query has none;
  // each source rejects it itself).
  Stopwatch sketch_time;
  MinHashSketch sketch;
  if (!query.empty()) {
    sketch = ComputeSketch(*topo.scheme, query.data(), query.size());
  }
  const double sketch_seconds = sketch_time.ElapsedSeconds();
  auto search_slot = [&](size_t j) {
    const size_t i = runnable[j];
    const bool is_delta = i == DeltaSlot(topo);
    Searcher* searcher =
        is_delta ? topo.delta.get() : &*topo.shards[i]->searcher;
    // Each source looks up cached lists under its own immutable owner id,
    // so one cache serves every shard without mixing up their lists (a
    // nullptr cache degrades to the uncached path).
    const ScatterInputs shared{
        cache, is_delta ? topo.delta_cache_owner : topo.shards[i]->cache_owner,
        query.empty() ? nullptr : &sketch};
    ShardOutcome& sub = subs[i];
    sub.ran = true;
    if (ctx == nullptr) {
      // Ungoverned fast path, bit-identical to the pre-governance shard
      // query.
      sub.status = searcher->Search(query, search_options, nullptr,
                                    &sub.result, shared);
    } else {
      // Hierarchical governance: the deadline and cancel flag are shared
      // verbatim; the shard gets an accounting-only arena parented to the
      // query's budget, so the caller's cap spans the whole scatter while
      // per-shard peaks stay observable.
      QueryContext child;
      if (ctx->has_deadline()) child.set_deadline(ctx->deadline());
      child.set_cancel_flag(ctx->cancel_flag());
      MemoryBudget arena(0, ctx->memory_budget());
      if (ctx->memory_budget() != nullptr) child.set_memory_budget(&arena);
      sub.status = searcher->Search(query, search_options, &child,
                                    &sub.result, shared);
    }
    if (!is_delta) RecordShardOutcome(*topo.shards[i], sub);
  };
  // Fan-out policy. A probe's work sits mostly in the one shard holding its
  // source text, so splitting a query across cores buys little latency,
  // while handing shards to pool threads costs a queue, a wakeup and a
  // barrier per query. While other scatters are in flight the caller
  // therefore runs every shard itself and the cores stay busy with other
  // queries; once it is alone (from the start, or because the others
  // finished, as at the tail of a batch) it offers idle pool threads as
  // helpers for its remaining shards, so a lone query spans the cores.
  // Signals like "pool workers look idle" mislead here: they look idle
  // exactly while callers run inline, and helpers then oversubscribe.
  scatters_in_flight.fetch_add(1, std::memory_order_relaxed);
  CallerRunsScatter(pool.get(), runnable.size(), search_slot, [this] {
    return scatters_in_flight.load(std::memory_order_relaxed) == 1;
  });
  scatters_in_flight.fetch_sub(1, std::memory_order_relaxed);
  const Status status = GatherQuery(topo, subs, result);
  result->stats.cpu_seconds += sketch_seconds;
  result->stats.wall_seconds = wall.ElapsedSeconds();
  if (ctx != nullptr && ctx->memory_budget() != nullptr) {
    result->stats.peak_memory_bytes = ctx->memory_budget()->peak();
  }
  return status;
}

ShardedSearcher::ShardedSearcher(std::unique_ptr<State> state)
    : state_(std::move(state)) {}
ShardedSearcher::ShardedSearcher(ShardedSearcher&&) noexcept = default;
ShardedSearcher& ShardedSearcher::operator=(ShardedSearcher&&) noexcept =
    default;
ShardedSearcher::~ShardedSearcher() = default;

Result<ShardedSearcher> ShardedSearcher::Open(
    const std::string& set_dir, const ShardedSearcherOptions& options) {
  NDSS_ASSIGN_OR_RETURN(ShardManifest manifest, ShardManifest::Load(set_dir));
  // Self-healing subsumes shard-level isolation: it must survive the same
  // faults allow_shard_drop does, plus transient ones.
  const bool isolate = options.allow_shard_drop || options.enable_self_healing;
  std::vector<std::shared_ptr<ShardHandle>> shards;
  std::vector<IndexMeta> metas;
  size_t healthy = 0;
  for (const std::string& entry : manifest.shard_dirs) {
    auto handle = std::make_shared<ShardHandle>();
    handle->entry = entry;
    handle->dir = ResolveShardDir(set_dir, entry);
    if (options.enable_self_healing) {
      handle->health = std::make_shared<ShardHealthTracker>(options.health);
    }
    // The meta is required even under allow_shard_drop: without it the
    // shard's id range is unknown and every later shard's global ids would
    // shift, breaking the stable-id contract of a degraded drop.
    NDSS_ASSIGN_OR_RETURN(handle->meta, LoadShardMeta(handle->dir));
    Result<Searcher> searcher =
        Searcher::Open(handle->dir, options.shard_options);
    if (searcher.ok()) {
      handle->searcher.emplace(std::move(*searcher));
      ++healthy;
    } else {
      if (!isolate) return searcher.status();
      NDSS_LOG(kWarning) << "degraded open: dropping shard " << handle->dir
                         << ": " << searcher.status().ToString();
      handle->dropped.store(true, std::memory_order_relaxed);
      if (handle->health != nullptr) {
        // Unopenable = no suspect grace: straight to quarantine so the
        // monitor starts probing for recovery right away. Note the handle
        // has no Searcher — reopening builds a fresh handle anyway.
        handle->health->Quarantine(searcher.status(), SteadyNowMicros());
      }
    }
    metas.push_back(handle->meta);
    shards.push_back(std::move(handle));
  }
  NDSS_RETURN_NOT_OK(ValidateShardMetas(metas, manifest.shard_dirs));
  if (healthy == 0) {
    return Status::Corruption("no healthy shard in set " + set_dir);
  }
  auto state = std::make_unique<State>();
  state->set_dir = set_dir;
  state->options = options;
  state->topology = BuildTopology(manifest.epoch, std::move(shards), nullptr,
                                  0, manifest.applied_seqno);
  size_t threads = options.num_threads;
  if (threads == 0) {
    const size_t hw = std::max(1u, std::thread::hardware_concurrency());
    threads = std::min(state->topology->shards.size(), hw);
  }
  state->pool = std::make_unique<ThreadPool>(std::max<size_t>(1, threads));
  if (options.enable_self_healing) {
    // The callbacks capture the State address, which is stable across
    // ShardedSearcher moves (the unique_ptr moves, the State does not).
    State* s = state.get();
    state->monitor = std::make_unique<HealthMonitor>(
        options.health, options.shard_options,
        [s] { return s->QuarantinedTargets(); },
        [s](const std::string& dir, Searcher searcher) {
          return s->ReopenShard(dir, std::move(searcher));
        });
    state->monitor->Start();
  }
  return ShardedSearcher(std::move(state));
}

Result<SearchResult> ShardedSearcher::Search(std::span<const Token> query,
                                             const SearchOptions& options) {
  SearchResult result;
  NDSS_RETURN_NOT_OK(Search(query, options, nullptr, &result));
  return result;
}

Status ShardedSearcher::Search(std::span<const Token> query,
                               const SearchOptions& options,
                               const QueryContext* ctx, SearchResult* result) {
  if (result == nullptr) {
    return Status::InvalidArgument("result must be non-null");
  }
  const std::shared_ptr<const Topology> topo = state_->Snapshot();
  return state_->Scatter(*topo, query, options, ctx, state_->ServerCache(),
                         result);
}

Result<std::vector<SearchResult>> ShardedSearcher::SearchBatch(
    const std::vector<std::vector<Token>>& queries,
    const SearchOptions& options, uint64_t cache_budget_bytes,
    size_t num_threads) {
  NDSS_ASSIGN_OR_RETURN(
      BatchResult batch, SearchBatch(queries, options, BatchLimits{},
                                     cache_budget_bytes, num_threads));
  for (const Status& status : batch.statuses) {
    if (!status.ok()) return status;
  }
  return std::move(batch.results);
}

Result<BatchResult> ShardedSearcher::SearchBatch(
    const std::vector<std::vector<Token>>& queries,
    const SearchOptions& options, const BatchLimits& limits,
    uint64_t cache_budget_bytes, size_t num_threads) {
  // One snapshot for the whole batch: every query answers over the same
  // topology.
  const std::shared_ptr<const Topology> topo = state_->Snapshot();
  if (RunnableSlots(*topo).empty()) {
    return Status::Corruption("every shard of the set is dropped");
  }
  // A worker runs its query's shard searches itself once other queries
  // are in flight (see Scatter), so as many workers as the pool has
  // threads keep that many cores busy with no handoff and no per-query
  // gather barrier; many more only make in-flight queries wait on each
  // other's list loads. The workers belong to the call, never to the pool.
  const size_t workers = std::max(num_threads, state_->pool->num_threads());
  return RunGovernedBatch(
      queries, limits, state_->ServerCache(), cache_budget_bytes, workers,
      [&](std::span<const Token> query, const QueryContext& ctx,
          CrossQueryListCache* cache, SearchResult* result) {
        return state_->Scatter(*topo, query, options, &ctx, cache, result);
      });
}

Status ShardedSearcher::AttachShard(const std::string& shard_dir) {
  std::lock_guard<std::mutex> admin(state_->admin_mu);
  const std::shared_ptr<const Topology> topo = state_->Snapshot();
  const std::string resolved = ResolveShardDir(state_->set_dir, shard_dir);
  const std::string normalized_entry = NormalizePath(shard_dir);
  const std::string normalized_dir = NormalizePath(resolved);
  for (const auto& shard : topo->shards) {
    if (NormalizePath(shard->entry) == normalized_entry ||
        NormalizePath(shard->dir) == normalized_dir) {
      return Status::InvalidArgument("shard " + shard_dir +
                                     " is already attached");
    }
  }
  auto handle = std::make_shared<ShardHandle>();
  handle->entry = shard_dir;
  handle->dir = resolved;
  NDSS_ASSIGN_OR_RETURN(handle->meta, LoadShardMeta(resolved));
  if (!SameSketchFamily(handle->meta, topo->combined)) {
    return Status::InvalidArgument(
        "shard " + shard_dir +
        " was built with different (k, seed, t, sketch scheme) than the set");
  }
  if (topo->combined.num_texts + handle->meta.num_texts > 0xffffffffULL) {
    return Status::InvalidArgument("attaching " + shard_dir +
                                   " would exceed 2^32 texts");
  }
  // Attaching a broken shard fails loudly even under allow_shard_drop:
  // degradation is for faults that happen while serving, not ones visible
  // at admission.
  NDSS_ASSIGN_OR_RETURN(Searcher searcher,
                        Searcher::Open(resolved, state_->options.shard_options));
  handle->searcher.emplace(std::move(searcher));
  if (state_->options.enable_self_healing) {
    handle->health = std::make_shared<ShardHealthTracker>(
        state_->options.health);
  }

  ShardManifest manifest;
  manifest.epoch = topo->epoch + 1;
  manifest.applied_seqno = topo->applied_seqno;
  for (const auto& shard : topo->shards) {
    manifest.shard_dirs.push_back(shard->entry);
  }
  manifest.shard_dirs.push_back(shard_dir);
  // Durable truth first, serving second: if the commit fails the topology
  // is unchanged; if we crash right after it, the next Open serves the new
  // shard list.
  NDSS_RETURN_NOT_OK(manifest.Save(state_->set_dir));
  std::vector<std::shared_ptr<ShardHandle>> shards = topo->shards;
  shards.push_back(std::move(handle));
  state_->Swap(BuildTopology(manifest.epoch, std::move(shards), topo->delta,
                             topo->delta_cache_owner, topo->applied_seqno));
  return Status::OK();
}

Status ShardedSearcher::DetachShard(const std::string& shard_dir) {
  std::lock_guard<std::mutex> admin(state_->admin_mu);
  const std::shared_ptr<const Topology> topo = state_->Snapshot();
  const std::string normalized_entry = NormalizePath(shard_dir);
  const std::string normalized_dir =
      NormalizePath(ResolveShardDir(state_->set_dir, shard_dir));
  size_t found = topo->shards.size();
  for (size_t i = 0; i < topo->shards.size(); ++i) {
    if (NormalizePath(topo->shards[i]->entry) == normalized_entry ||
        NormalizePath(topo->shards[i]->dir) == normalized_dir) {
      found = i;
      break;
    }
  }
  if (found == topo->shards.size()) {
    return Status::NotFound("shard " + shard_dir + " is not in the set");
  }
  if (topo->shards.size() == 1) {
    return Status::InvalidArgument(
        "cannot detach the last shard (a shard set must keep at least one)");
  }
  ShardManifest manifest;
  manifest.epoch = topo->epoch + 1;
  manifest.applied_seqno = topo->applied_seqno;
  std::vector<std::shared_ptr<ShardHandle>> shards;
  for (size_t i = 0; i < topo->shards.size(); ++i) {
    if (i == found) continue;
    manifest.shard_dirs.push_back(topo->shards[i]->entry);
    shards.push_back(topo->shards[i]);
  }
  NDSS_RETURN_NOT_OK(manifest.Save(state_->set_dir));
  state_->Swap(BuildTopology(manifest.epoch, std::move(shards), topo->delta,
                             topo->delta_cache_owner, topo->applied_seqno));
  state_->RetireCacheOwners({topo->shards[found]->cache_owner});
  return Status::OK();
}

Status ShardedSearcher::SetDelta(std::shared_ptr<Searcher> delta) {
  std::lock_guard<std::mutex> admin(state_->admin_mu);
  const std::shared_ptr<const Topology> topo = state_->Snapshot();
  if (delta != nullptr) {
    const IndexMeta& meta = delta->meta();
    if (!SameSketchFamily(meta, topo->combined)) {
      return Status::InvalidArgument(
          "delta index was built with different (k, seed, t, sketch scheme) "
          "than the set");
    }
    uint64_t sealed_texts = 0;
    for (const auto& shard : topo->shards) {
      sealed_texts += shard->meta.num_texts;
    }
    if (sealed_texts + meta.num_texts > 0xffffffffULL) {
      return Status::InvalidArgument("delta index would exceed 2^32 texts");
    }
  }
  const bool has_delta = delta != nullptr;
  state_->Swap(BuildTopology(topo->epoch, topo->shards, std::move(delta),
                             has_delta ? NextCacheOwnerId() : 0,
                             topo->applied_seqno));
  state_->RetireCacheOwners({topo->delta_cache_owner});
  return Status::OK();
}

Status ShardedSearcher::PromoteDelta(const std::string& shard_entry,
                                     std::shared_ptr<Searcher> next_delta,
                                     uint64_t applied_seqno) {
  std::lock_guard<std::mutex> admin(state_->admin_mu);
  const std::shared_ptr<const Topology> topo = state_->Snapshot();
  const std::string resolved = ResolveShardDir(state_->set_dir, shard_entry);
  const std::string normalized_entry = NormalizePath(shard_entry);
  const std::string normalized_dir = NormalizePath(resolved);
  for (const auto& shard : topo->shards) {
    if (NormalizePath(shard->entry) == normalized_entry ||
        NormalizePath(shard->dir) == normalized_dir) {
      return Status::InvalidArgument("shard " + shard_entry +
                                     " is already attached");
    }
  }
  if (applied_seqno < topo->applied_seqno) {
    return Status::InvalidArgument(
        "applied_seqno must not move backwards (have " +
        std::to_string(topo->applied_seqno) + ", got " +
        std::to_string(applied_seqno) + ")");
  }
  auto handle = std::make_shared<ShardHandle>();
  handle->entry = shard_entry;
  handle->dir = resolved;
  NDSS_ASSIGN_OR_RETURN(handle->meta, LoadShardMeta(resolved));
  if (!SameSketchFamily(handle->meta, topo->combined)) {
    return Status::InvalidArgument(
        "shard " + shard_entry +
        " was built with different (k, seed, t, sketch scheme) than the set");
  }
  uint64_t num_texts = handle->meta.num_texts;
  for (const auto& shard : topo->shards) num_texts += shard->meta.num_texts;
  if (next_delta != nullptr) num_texts += next_delta->meta().num_texts;
  if (num_texts > 0xffffffffULL) {
    return Status::InvalidArgument("promoting " + shard_entry +
                                   " would exceed 2^32 texts");
  }
  // A spilled shard that cannot be opened must fail the promotion loudly:
  // the memtable keeps serving these documents and the WAL keeps them
  // durable, so nothing is lost.
  NDSS_ASSIGN_OR_RETURN(
      Searcher searcher,
      Searcher::Open(resolved, state_->options.shard_options));
  handle->searcher.emplace(std::move(searcher));
  if (state_->options.enable_self_healing) {
    handle->health =
        std::make_shared<ShardHealthTracker>(state_->options.health);
  }

  ShardManifest manifest;
  manifest.epoch = topo->epoch + 1;
  manifest.applied_seqno = applied_seqno;
  for (const auto& shard : topo->shards) {
    manifest.shard_dirs.push_back(shard->entry);
  }
  manifest.shard_dirs.push_back(shard_entry);
  // The manifest commit is the atomic point of the spill: before it, a
  // crash recovers by replaying the WAL into a fresh memtable (the built
  // shard directory is an unreferenced orphan); after it, replay skips the
  // spilled frames via applied_seqno. The swap below retires the old delta
  // and admits the sealed shard in one step, so no query snapshot ever
  // sees the spilled documents twice or not at all.
  NDSS_RETURN_NOT_OK(manifest.Save(state_->set_dir));
  std::vector<std::shared_ptr<ShardHandle>> shards = topo->shards;
  shards.push_back(std::move(handle));
  const bool has_next_delta = next_delta != nullptr;
  state_->Swap(BuildTopology(manifest.epoch, std::move(shards),
                             std::move(next_delta),
                             has_next_delta ? NextCacheOwnerId() : 0,
                             applied_seqno));
  state_->RetireCacheOwners({topo->delta_cache_owner});
  return Status::OK();
}

Status ShardedSearcher::ReplaceShards(
    const std::vector<std::string>& shard_entries,
    const std::string& merged_entry) {
  if (shard_entries.empty()) {
    return Status::InvalidArgument("ReplaceShards needs at least one shard");
  }
  std::lock_guard<std::mutex> admin(state_->admin_mu);
  const std::shared_ptr<const Topology> topo = state_->Snapshot();
  // The run must match the current topology exactly — same shards, same
  // order, contiguous. A compaction planned against an older topology
  // (shards detached or already compacted since) must not commit: text-id
  // preservation only holds for the topology the merge actually read.
  size_t start = topo->shards.size();
  for (size_t i = 0; i < topo->shards.size(); ++i) {
    if (NormalizePath(topo->shards[i]->entry) ==
            NormalizePath(shard_entries.front()) ||
        NormalizePath(topo->shards[i]->dir) ==
            NormalizePath(
                ResolveShardDir(state_->set_dir, shard_entries.front()))) {
      start = i;
      break;
    }
  }
  if (start == topo->shards.size() ||
      start + shard_entries.size() > topo->shards.size()) {
    return Status::NotFound("compaction run is not in the current topology");
  }
  uint64_t run_texts = 0;
  for (size_t j = 0; j < shard_entries.size(); ++j) {
    const auto& shard = topo->shards[start + j];
    if (NormalizePath(shard->entry) != NormalizePath(shard_entries[j]) &&
        NormalizePath(shard->dir) !=
            NormalizePath(ResolveShardDir(state_->set_dir,
                                          shard_entries[j]))) {
      return Status::NotFound(
          "compaction run no longer matches the topology at " +
          shard_entries[j]);
    }
    run_texts += shard->meta.num_texts;
  }
  auto handle = std::make_shared<ShardHandle>();
  handle->entry = merged_entry;
  handle->dir = ResolveShardDir(state_->set_dir, merged_entry);
  NDSS_ASSIGN_OR_RETURN(handle->meta, LoadShardMeta(handle->dir));
  if (!SameSketchFamily(handle->meta, topo->combined)) {
    return Status::InvalidArgument(
        "merged shard " + merged_entry +
        " was built with different (k, seed, t, sketch scheme) than the set");
  }
  if (handle->meta.num_texts != run_texts) {
    // The merged shard must be id-preserving: exactly the run's texts, in
    // concatenation order. Anything else would renumber every later shard.
    return Status::InvalidArgument(
        "merged shard " + merged_entry + " holds " +
        std::to_string(handle->meta.num_texts) + " texts, expected " +
        std::to_string(run_texts));
  }
  NDSS_ASSIGN_OR_RETURN(
      Searcher searcher,
      Searcher::Open(handle->dir, state_->options.shard_options));
  handle->searcher.emplace(std::move(searcher));
  if (state_->options.enable_self_healing) {
    handle->health =
        std::make_shared<ShardHealthTracker>(state_->options.health);
  }

  ShardManifest manifest;
  manifest.epoch = topo->epoch + 1;
  manifest.applied_seqno = topo->applied_seqno;
  std::vector<std::shared_ptr<ShardHandle>> shards;
  for (size_t i = 0; i < topo->shards.size(); ++i) {
    if (i == start) {
      manifest.shard_dirs.push_back(merged_entry);
      shards.push_back(handle);
    }
    if (i >= start && i < start + shard_entries.size()) continue;
    manifest.shard_dirs.push_back(topo->shards[i]->entry);
    shards.push_back(topo->shards[i]);
  }
  NDSS_RETURN_NOT_OK(manifest.Save(state_->set_dir));
  state_->Swap(BuildTopology(manifest.epoch, std::move(shards), topo->delta,
                             topo->delta_cache_owner, topo->applied_seqno));
  for (size_t j = 0; j < shard_entries.size(); ++j) {
    state_->RetireCacheOwners({topo->shards[start + j]->cache_owner});
  }
  return Status::OK();
}

Status ShardedSearcher::EnableListCache(uint64_t budget_bytes,
                                        MemoryBudget* parent) {
  std::lock_guard<std::mutex> admin(state_->admin_mu);
  if (state_->list_cache_store != nullptr) {
    return Status::InvalidArgument("the list cache is already enabled");
  }
  state_->list_cache_store =
      std::make_unique<CrossQueryListCache>(budget_bytes, parent);
  // Publish last: a query that loads the pointer sees a fully constructed
  // cache.
  state_->list_cache.store(state_->list_cache_store.get(),
                           std::memory_order_release);
  return Status::OK();
}

const CrossQueryListCache* ShardedSearcher::list_cache() const {
  return state_->list_cache.load(std::memory_order_acquire);
}

uint64_t ShardedSearcher::applied_seqno() const {
  return state_->Snapshot()->applied_seqno;
}

uint64_t ShardedSearcher::delta_texts() const {
  const std::shared_ptr<const Topology> topo = state_->Snapshot();
  return topo->delta != nullptr ? topo->delta->meta().num_texts : 0;
}

const std::string& ShardedSearcher::set_dir() const {
  return state_->set_dir;
}

uint64_t ShardedSearcher::epoch() const { return state_->Snapshot()->epoch; }

IndexMeta ShardedSearcher::meta() const {
  return state_->Snapshot()->combined;
}

std::vector<ShardInfo> ShardedSearcher::shards() const {
  const std::shared_ptr<const Topology> topo = state_->Snapshot();
  std::vector<ShardInfo> out;
  out.reserve(topo->shards.size());
  for (size_t i = 0; i < topo->shards.size(); ++i) {
    const ShardHandle& shard = *topo->shards[i];
    ShardInfo info;
    info.dir = shard.dir;
    info.text_offset = topo->offsets[i];
    info.num_texts = shard.meta.num_texts;
    info.dropped = !shard.searcher.has_value() ||
                   shard.dropped.load(std::memory_order_relaxed);
    if (shard.health != nullptr) {
      info.health = shard.health->Snapshot();
    } else if (info.dropped) {
      info.health.state = ShardHealth::kQuarantined;
    }
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace ndss
