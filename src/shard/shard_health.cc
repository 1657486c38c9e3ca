#include "shard/shard_health.h"

#include <algorithm>
#include <chrono>

#include "common/query_context.h"
#include "index/index_meta.h"
#include "index/inverted_index_reader.h"
#include "shard/shard_manifest.h"

namespace ndss {

const char* ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kSuspect:
      return "suspect";
    case ShardHealth::kQuarantined:
      return "quarantined";
    case ShardHealth::kProbing:
      return "probing";
  }
  return "?";
}

uint64_t SteadyNowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ShardHealthTracker::ShardHealthTracker(const ShardHealthOptions& options)
    : options_(options),
      window_(std::max<uint32_t>(1, options.error_rate_window), false),
      probe_delay_micros_(options.initial_probe_delay_micros) {}

void ShardHealthTracker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == ShardHealth::kQuarantined || state_ == ShardHealth::kProbing) {
    // A success observed by an in-flight query that snapshotted the shard
    // before it was quarantined; only a probe may clear quarantine.
    return;
  }
  RecordOutcomeLocked(false);
  consecutive_failures_ = 0;
  state_ = ShardHealth::kHealthy;
}

bool ShardHealthTracker::RecordFailure(const Status& status,
                                       uint64_t now_micros) {
  if (IsGovernanceStatus(status)) {
    // Governance stops are the caller's doing, not evidence about the
    // shard's storage.
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  last_error_ = status.ToString();
  if (status.IsCorruption()) {
    ++corruption_failures_;
  } else {
    ++transient_failures_;
  }
  if (state_ == ShardHealth::kQuarantined || state_ == ShardHealth::kProbing) {
    return false;  // already out of the serving set
  }
  if (status.IsCorruption()) {
    // The shard is lying about its data: nothing it serves is trustworthy,
    // so there is no "suspect" grace period.
    QuarantineLocked(now_micros);
    return true;
  }
  RecordOutcomeLocked(true);
  ++consecutive_failures_;
  if (consecutive_failures_ >= options_.consecutive_failures_to_quarantine ||
      RateBreakerTrippedLocked()) {
    QuarantineLocked(now_micros);
    return true;
  }
  state_ = ShardHealth::kSuspect;
  return false;
}

void ShardHealthTracker::RecordDrop() {
  std::lock_guard<std::mutex> lock(mu_);
  ++drops_;
}

bool ShardHealthTracker::Quarantine(const Status& cause, uint64_t now_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  last_error_ = cause.ToString();
  if (cause.IsCorruption()) {
    ++corruption_failures_;
  } else {
    ++transient_failures_;
  }
  if (state_ == ShardHealth::kQuarantined || state_ == ShardHealth::kProbing) {
    return false;
  }
  QuarantineLocked(now_micros);
  return true;
}

bool ShardHealthTracker::ProbeDue(uint64_t now_micros) const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_ == ShardHealth::kQuarantined && now_micros >= next_probe_micros_;
}

bool ShardHealthTracker::DeepCheckDue() const {
  std::lock_guard<std::mutex> lock(mu_);
  return probes_since_quarantine_ >= options_.deep_check_after_probes ||
         quarantines_since_deep_ok_ >= options_.deep_check_after_probes;
}

void ShardHealthTracker::BeginProbe(bool deep) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != ShardHealth::kQuarantined) return;
  state_ = ShardHealth::kProbing;
  probing_deep_ = deep;
  ++probes_;
  ++probes_since_quarantine_;
}

void ShardHealthTracker::ProbeSucceeded() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != ShardHealth::kProbing) return;
  state_ = ShardHealth::kHealthy;
  ++reopens_;
  consecutive_failures_ = 0;
  probes_since_quarantine_ = 0;
  if (probing_deep_) quarantines_since_deep_ok_ = 0;
  probe_delay_micros_ = options_.initial_probe_delay_micros;
  std::fill(window_.begin(), window_.end(), false);
  window_next_ = 0;
  window_filled_ = 0;
  last_error_.clear();
}

void ShardHealthTracker::ProbeFailed(const Status& status,
                                     uint64_t now_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != ShardHealth::kProbing) return;
  ++probe_failures_;
  last_error_ = status.ToString();
  state_ = ShardHealth::kQuarantined;
  probe_delay_micros_ = std::min<uint64_t>(
      options_.max_probe_delay_micros,
      std::max<uint64_t>(1, static_cast<uint64_t>(
                                static_cast<double>(probe_delay_micros_) *
                                options_.probe_backoff_multiplier)));
  next_probe_micros_ = now_micros + probe_delay_micros_;
}

ShardHealth ShardHealthTracker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

bool ShardHealthTracker::excluded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_ == ShardHealth::kQuarantined || state_ == ShardHealth::kProbing;
}

ShardHealthSnapshot ShardHealthTracker::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  ShardHealthSnapshot snapshot;
  snapshot.state = state_;
  snapshot.transient_failures = transient_failures_;
  snapshot.corruption_failures = corruption_failures_;
  snapshot.drops = drops_;
  snapshot.quarantines = quarantines_;
  snapshot.reopens = reopens_;
  snapshot.probes = probes_;
  snapshot.probe_failures = probe_failures_;
  snapshot.consecutive_failures = consecutive_failures_;
  snapshot.last_error = last_error_;
  return snapshot;
}

void ShardHealthTracker::RecordOutcomeLocked(bool failed) {
  window_[window_next_] = failed;
  window_next_ = (window_next_ + 1) % window_.size();
  window_filled_ = std::min(window_filled_ + 1, window_.size());
}

bool ShardHealthTracker::RateBreakerTrippedLocked() const {
  if (window_filled_ < options_.error_rate_min_samples) return false;
  size_t failures = 0;
  for (size_t i = 0; i < window_filled_; ++i) {
    failures += window_[i] ? 1 : 0;
  }
  return static_cast<double>(failures) >=
         options_.error_rate_threshold * static_cast<double>(window_filled_);
}

void ShardHealthTracker::QuarantineLocked(uint64_t now_micros) {
  state_ = ShardHealth::kQuarantined;
  ++quarantines_;
  ++quarantines_since_deep_ok_;
  probes_since_quarantine_ = 0;
  probe_delay_micros_ = options_.initial_probe_delay_micros;
  next_probe_micros_ = now_micros + probe_delay_micros_;
}

Result<Searcher> ProbeShard(const std::string& shard_dir,
                            const SearcherOptions& options, bool deep) {
  // Cheap pass: commit marker + meta CRC (LoadShardMeta), then every index
  // file's header/footer via a real open — the same validation serving
  // relies on, so a probe success means the shard is actually servable.
  NDSS_ASSIGN_OR_RETURN(IndexMeta meta, LoadShardMeta(shard_dir));
  NDSS_ASSIGN_OR_RETURN(Searcher searcher,
                        Searcher::Open(shard_dir, options));
  if (deep) {
    // Fsck-style physical check: read and CRC-verify every posting list of
    // every hash function. A shard that flapped through several cheap
    // probes does not rejoin the topology until its whole file set proves
    // clean.
    std::vector<PostedWindow> windows;
    for (uint32_t func = 0; func < meta.k; ++func) {
      const std::string path = IndexMeta::InvertedIndexPath(shard_dir, func);
      NDSS_ASSIGN_OR_RETURN(InvertedIndexReader reader,
                            InvertedIndexReader::Open(path));
      for (const ListMeta& list : reader.directory()) {
        windows.clear();
        NDSS_RETURN_NOT_OK(reader.ReadList(list, &windows));
      }
    }
  }
  return searcher;
}

}  // namespace ndss
