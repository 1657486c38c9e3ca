#include "query/list_cache.h"

namespace ndss {

CrossQueryListCache::CrossQueryListCache(uint64_t budget_bytes,
                                         MemoryBudget* parent)
    : budget_bytes_(budget_bytes),
      shard_budget_(budget_bytes / kShards),
      parent_(parent) {}

CrossQueryListCache::~CrossQueryListCache() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (parent_ != nullptr && shard.bytes > 0) parent_->Release(shard.bytes);
    shard.bytes = 0;
    shard.map.clear();
    shard.ring.clear();
  }
}

std::shared_ptr<CrossQueryListCache::Entry> CrossQueryListCache::GetOrCreate(
    const Key& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, created] = shard.map.try_emplace(key);
  if (created) {
    it->second.entry = std::make_shared<Entry>();
  } else {
    it->second.referenced = true;
  }
  return it->second.entry;
}

void CrossQueryListCache::RetireLocked(Shard& shard, Slot& slot) {
  shard.bytes -= slot.entry->bytes;
  if (parent_ != nullptr) parent_->Release(slot.entry->bytes);
  if (shard.hand == slot.ring_it) ++shard.hand;
  shard.ring.erase(slot.ring_it);
  if (shard.hand == shard.ring.end()) shard.hand = shard.ring.begin();
  slot.resident = false;
}

bool CrossQueryListCache::Commit(const Key& key,
                                 const std::shared_ptr<Entry>& entry) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || it->second.entry != entry) {
    // EraseOwner raced the load and already dropped this key: the source
    // is retired, so do not re-insert — the entry stays usable by the
    // queries that hold it and dies with them.
    return false;
  }
  const uint64_t need = entry->bytes;
  if (need > shard_budget_) {
    shard.map.erase(it);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // CLOCK sweep: a referenced entry loses its bit and is passed over once;
  // the first unreferenced one goes. Two laps at most clear every bit.
  while (shard.bytes + need > shard_budget_ && !shard.ring.empty()) {
    auto victim = shard.map.find(*shard.hand);
    if (victim->second.referenced) {
      victim->second.referenced = false;
      if (++shard.hand == shard.ring.end()) shard.hand = shard.ring.begin();
      continue;
    }
    RetireLocked(shard, victim->second);
    shard.map.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  if (shard.bytes + need > shard_budget_) {
    // Loading entries (not yet resident) cannot be evicted; retry later.
    shard.map.erase(it);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (parent_ != nullptr && !parent_->Charge(need).ok()) {
    // The server-wide budget is exhausted by other subsystems: serve the
    // current holders but do not retain.
    shard.map.erase(it);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  shard.bytes += need;
  // Just behind the hand: a full lap passes before the hand reaches it.
  it->second.ring_it = shard.ring.insert(shard.hand, key);
  if (shard.ring.size() == 1) shard.hand = shard.ring.begin();
  it->second.resident = true;
  insertions_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void CrossQueryListCache::Abandon(const Key& key,
                                  const std::shared_ptr<Entry>& entry) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || it->second.entry != entry) return;
  if (it->second.resident) RetireLocked(shard, it->second);
  shard.map.erase(it);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

void CrossQueryListCache::EraseOwner(uint64_t owner) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      if (it->first.owner != owner) {
        ++it;
        continue;
      }
      if (it->second.resident) RetireLocked(shard, it->second);
      it = shard.map.erase(it);
      invalidations_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

CrossQueryListCache::Counters CrossQueryListCache::counters() const {
  Counters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.insertions = insertions_.load(std::memory_order_relaxed);
  c.evictions = evictions_.load(std::memory_order_relaxed);
  c.invalidations = invalidations_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    c.bytes_used += shard.bytes;
    c.entries += shard.map.size();
  }
  return c;
}

}  // namespace ndss
