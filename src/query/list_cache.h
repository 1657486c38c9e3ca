#ifndef NDSS_QUERY_LIST_CACHE_H_
#define NDSS_QUERY_LIST_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "index/posting.h"

namespace ndss {

/// Cross-query posting-list cache: a bounded, memory-budgeted set of fully
/// decoded pass-1 lists that outlives any single SearchBatch. The prefix
/// filter exploits Zipfian token skew, which equally makes posting-list
/// popularity skewed under steady traffic — so a server re-reads the same
/// hot lists on every request unless something remembers them between
/// batches.
///
/// Keys are (owner, list). The owner id names one immutable list source —
/// a sealed shard's Searcher, or one published delta snapshot — and is
/// never reused: topology changes that retire a source (DetachShard,
/// ReopenShard, ReplaceShards, a delta publish) retire its owner id with
/// it, and the replacement gets a fresh id. Staleness is therefore
/// impossible by construction — a query can only look up entries under the
/// owner ids of the topology snapshot it runs against — and EraseOwner is
/// garbage collection, not a correctness hook. Entries of sources that
/// survive a topology-epoch bump (sealed shards are immutable) stay valid
/// and keep the cache warm.
///
/// Each entry carries a std::once_flag, so across every concurrent request
/// a distinct list is read from disk at most once: one loader runs the
/// read while every waiter blocks on the flag, then all of them share the
/// immutable decoded windows. Retention is accounted against the cache's
/// byte budget (split across kShards independent shards) and charged
/// to an optional parent MemoryBudget — in ndss_serve, the server-wide
/// budget — so cached lists show up in the same governance hierarchy as
/// inflight query memory. An entry that cannot be retained (budget full
/// even after eviction, or the parent refuses the charge) is dropped from
/// the map but stays readable by the queries already holding it; later
/// queries will re-read and retry retention.
///
/// Eviction is CLOCK (second chance), per shard: resident entries sit on a
/// ring in insertion order and a hit only sets the entry's reference bit,
/// so the hit path is one hash lookup under the shard mutex and moves no
/// list node. When Commit needs room, the clock hand sweeps the ring: a
/// referenced entry has its bit cleared and is passed over once, the first
/// unreferenced one is evicted. Entries still loading are not on the ring,
/// so they are never evicted.
///
/// Hit counting is the caller's: a query counts the hits of one search
/// locally and publishes them with one RecordHits, so the `hits` counter
/// is exact without one shared atomic increment per list.
///
/// Thread-safe. Readers of a loaded entry synchronize through call_once;
/// the per-shard mutex only guards map/ring bookkeeping.
class CrossQueryListCache {
 public:
  struct Key {
    uint64_t owner = 0;  ///< immutable-source id (never reused)
    uint64_t list = 0;   ///< (func << 32) | min-hash token
    bool operator==(const Key& other) const {
      return owner == other.owner && list == other.list;
    }
  };

  struct Entry {
    std::once_flag once;
    std::vector<PostedWindow> windows;
    Status status = Status::OK();
    bool stored = false;   ///< windows are valid (read succeeded)
    uint64_t bytes = 0;    ///< accounted size, set by the loader
  };

  /// Monotonic counters plus a point-in-time usage snapshot.
  struct Counters {
    uint64_t hits = 0;          ///< lists served without a read
    uint64_t misses = 0;        ///< lists a query had to load
    uint64_t insertions = 0;    ///< entries retained
    uint64_t evictions = 0;     ///< entries CLOCK-evicted for space
    uint64_t invalidations = 0; ///< entries dropped by EraseOwner/Abandon
    uint64_t bytes_used = 0;
    uint64_t entries = 0;
  };

  /// `budget_bytes` caps retained entries (0 disables retention — every
  /// load is abandoned after serving its waiters). `parent` is optionally
  /// charged for every retained byte.
  explicit CrossQueryListCache(uint64_t budget_bytes,
                               MemoryBudget* parent = nullptr);
  ~CrossQueryListCache();

  CrossQueryListCache(const CrossQueryListCache&) = delete;
  CrossQueryListCache& operator=(const CrossQueryListCache&) = delete;

  /// Returns the entry for `key`, creating an empty one if absent, and sets
  /// a resident entry's reference bit. The caller runs the load under
  /// entry->once.
  std::shared_ptr<Entry> GetOrCreate(const Key& key);

  /// Retains a loaded entry: runs the clock hand until entry->bytes fits
  /// the shard's budget share, charges the parent, and marks the entry
  /// resident. Returns false (and removes `key` from the map, so a later
  /// query retries) when it cannot fit; the entry's windows stay valid for
  /// current holders either way. Must be called by the loader, at most
  /// once, with entry->bytes set.
  bool Commit(const Key& key, const std::shared_ptr<Entry>& entry);

  /// Drops `key` iff it still maps to `entry`, so a later query can retry
  /// the load. Used when the loader failed (its own governance limits, a
  /// corrupt list): the entry must not linger un-retried.
  void Abandon(const Key& key, const std::shared_ptr<Entry>& entry);

  /// Drops every entry of `owner`, releasing its bytes. Called when a
  /// topology change retires the source behind that id.
  void EraseOwner(uint64_t owner);

  /// Adds `n` lists served without a read (one call per search).
  void RecordHits(uint64_t n) { hits_.fetch_add(n, std::memory_order_relaxed); }
  void RecordMiss() { misses_.fetch_add(1, std::memory_order_relaxed); }

  Counters counters() const;
  uint64_t budget_bytes() const { return budget_bytes_; }

  /// Fixed per-entry accounting overhead (map node, ring node, vector
  /// header), added to the window payload when sizing an entry.
  static constexpr uint64_t kEntryOverhead = 96;

  /// Independent shards (mutex, map, clock ring) the keyspace is hashed
  /// over; each retains at most budget_bytes / kShards.
  static constexpr size_t kShards = 16;

 private:
  struct KeyHash {
    size_t operator()(const Key& key) const {
      uint64_t h = key.owner * 0x9e3779b97f4a7c15ull;
      h ^= key.list + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  struct Slot {
    std::shared_ptr<Entry> entry;
    std::list<Key>::iterator ring_it;
    bool resident = false;    ///< accounted and on the clock ring
    bool referenced = false;  ///< hit since the hand last passed
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Slot, KeyHash> map;
    /// Resident entries only, in insertion order; the clock hand walks it
    /// front to back and wraps. New entries go in just behind the hand, so
    /// they are the last the hand reaches.
    std::list<Key> ring;
    std::list<Key>::iterator hand = ring.end();
    uint64_t bytes = 0;
  };

  Shard& ShardFor(const Key& key) {
    return shards_[KeyHash{}(key) % kShards];
  }

  /// Removes a resident slot's accounting (bytes, ring, parent charge),
  /// moving the hand past it if it points there. Caller holds the shard
  /// mutex.
  void RetireLocked(Shard& shard, Slot& slot);

  const uint64_t budget_bytes_;
  const uint64_t shard_budget_;  ///< budget_bytes_ / kShards
  MemoryBudget* const parent_;
  Shard shards_[kShards];
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace ndss

#endif  // NDSS_QUERY_LIST_CACHE_H_
