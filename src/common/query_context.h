#ifndef NDSS_COMMON_QUERY_CONTEXT_H_
#define NDSS_COMMON_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>

#include "common/status.h"

namespace ndss {

/// Thread-safe byte accounting for one query (or one batch of queries).
///
/// A budget tracks `used` bytes with a high-water mark and an optional hard
/// cap (`max_bytes` = 0 means unlimited: the budget only accounts). Budgets
/// form a hierarchy: a per-query arena can parent to a batch-wide inflight
/// budget so `max_inflight_bytes` is enforced across the shared list cache
/// plus every live query arena. Charge/Release are lock-free; a charge that
/// would exceed any cap along the chain fails with ResourceExhausted and
/// leaves all counters unchanged.
class MemoryBudget {
 public:
  MemoryBudget() = default;
  explicit MemoryBudget(uint64_t max_bytes, MemoryBudget* parent = nullptr)
      : max_bytes_(max_bytes), parent_(parent) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Accounts `bytes` against this budget and every ancestor. Fails with
  /// ResourceExhausted (and no net change anywhere) if a cap would be
  /// exceeded.
  Status Charge(uint64_t bytes);

  /// Returns `bytes` to this budget and every ancestor.
  void Release(uint64_t bytes);

  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t max_bytes() const { return max_bytes_; }

 private:
  std::atomic<uint64_t> used_{0};
  std::atomic<uint64_t> peak_{0};
  const uint64_t max_bytes_ = 0;  ///< 0 = unlimited (accounting only)
  MemoryBudget* const parent_ = nullptr;
};

/// Per-query resource governance, threaded through the whole query path
/// (Searcher, CollisionCount, IntervalScan, list reads).
///
/// Carries three independent controls, each optional:
///  - a steady-clock deadline: work past it fails with DeadlineExceeded;
///  - a cooperative cancellation flag (non-owning pointer, so one flag can
///    cover many queries): when set, work fails with Cancelled;
///  - a memory budget for the query's working set (decoded lists, candidate
///    groups, scan scratch): overflow fails with ResourceExhausted.
///
/// Every postings loop calls Check() at bounded granularity (every list
/// read, and at least every kCheckIntervalWindows windows within one list),
/// so a query stops within one checkpoint interval of the deadline or
/// cancellation. A default-constructed context governs nothing and adds no
/// overhead beyond two branch checks per checkpoint. The query path also
/// accepts `const QueryContext* ctx == nullptr` everywhere, which skips the
/// checks entirely (the ungoverned fast path is bit-identical to the
/// pre-governance code).
///
/// Thread-safety: the referenced cancel flag and memory budget are safe to
/// share across threads; the context object itself is configured once and
/// then read-only, so one context may serve concurrent readers.
class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  QueryContext() = default;

  /// Context whose deadline is `micros` from now (no cancel flag, no
  /// budget).
  static QueryContext WithTimeout(int64_t micros) {
    QueryContext ctx;
    ctx.set_deadline(Clock::now() + std::chrono::microseconds(micros));
    return ctx;
  }

  void set_deadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

  /// Microseconds until the deadline (negative once past); INT64_MAX when
  /// no deadline is set.
  int64_t remaining_micros() const {
    if (!has_deadline_) return std::numeric_limits<int64_t>::max();
    return std::chrono::duration_cast<std::chrono::microseconds>(deadline_ -
                                                                 Clock::now())
        .count();
  }

  /// `flag` is observed, not owned; it must outlive every query using this
  /// context. nullptr detaches.
  void set_cancel_flag(const std::atomic<bool>* flag) { cancel_ = flag; }
  const std::atomic<bool>* cancel_flag() const { return cancel_; }
  bool cancelled() const {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }

  /// `budget` is shared, not owned; nullptr detaches (no accounting).
  void set_memory_budget(MemoryBudget* budget) { memory_ = budget; }
  MemoryBudget* memory_budget() const { return memory_; }

  /// The governance checkpoint: Cancelled if the flag is set, then
  /// DeadlineExceeded if the deadline has passed, else OK. Cancellation is
  /// checked first — an already-cancelled query should not report a
  /// deadline it never raced.
  Status Check() const;

  /// Charges `bytes` to the attached budget (OK when none is attached).
  Status ChargeMemory(uint64_t bytes) const {
    return memory_ == nullptr ? Status::OK() : memory_->Charge(bytes);
  }
  void ReleaseMemory(uint64_t bytes) const {
    if (memory_ != nullptr) memory_->Release(bytes);
  }

  /// Bounded checkpoint granularity: hot loops over postings re-check the
  /// context at least once per this many windows/endpoints, so overrun past
  /// a deadline is bounded by the time to process one interval. Power of
  /// two (loops use `i & (kCheckIntervalWindows - 1)`).
  static constexpr uint64_t kCheckIntervalWindows = 4096;

 private:
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  const std::atomic<bool>* cancel_ = nullptr;
  MemoryBudget* memory_ = nullptr;
};

/// nullptr-tolerant checkpoint: OK when no context governs the caller.
inline Status CheckQueryContext(const QueryContext* ctx) {
  return ctx == nullptr ? Status::OK() : ctx->Check();
}

/// True for outcomes imposed by the caller's QueryContext (deadline,
/// cancellation, memory budget) rather than by the data: they say nothing
/// about the health of a list, a file or a shard.
inline bool IsGovernanceStatus(const Status& status) {
  return status.IsDeadlineExceeded() || status.IsCancelled() ||
         status.IsResourceExhausted();
}

/// RAII handle over a context's memory budget: everything charged through
/// it is released when it goes out of scope (query end or early error
/// return), so error paths cannot leak accounted bytes. No-op when `ctx` is
/// nullptr or has no budget attached.
class ScopedMemoryCharge {
 public:
  explicit ScopedMemoryCharge(const QueryContext* ctx) : ctx_(ctx) {}
  ~ScopedMemoryCharge() {
    if (ctx_ != nullptr && charged_ > 0) ctx_->ReleaseMemory(charged_);
  }

  ScopedMemoryCharge(const ScopedMemoryCharge&) = delete;
  ScopedMemoryCharge& operator=(const ScopedMemoryCharge&) = delete;

  /// Adds `bytes` to the budget; on ResourceExhausted nothing is recorded.
  Status Charge(uint64_t bytes) {
    if (ctx_ == nullptr) return Status::OK();
    NDSS_RETURN_NOT_OK(ctx_->ChargeMemory(bytes));
    charged_ += bytes;
    return Status::OK();
  }

  uint64_t charged() const { return charged_; }

 private:
  const QueryContext* ctx_;
  uint64_t charged_ = 0;
};

/// Largest deadline or sleep a caller may ask for, in microseconds: half
/// the clock's nanosecond range (~146 years), so adding it to any
/// steady_clock reading cannot overflow.
inline constexpr int64_t kMaxLimitMicros =
    std::chrono::duration_cast<std::chrono::microseconds>(
        QueryContext::Clock::duration::max())
        .count() /
    2;

/// Scales a limit (a deadline in ms, a budget in MB) into whole units of
/// its integer type. A double past the integer's range converts with
/// undefined behaviour (a 1e300 ms deadline became INT64_MIN microseconds:
/// already expired), so negative, NaN and out-of-range values are an
/// InvalidArgument.
template <typename T>
Status ScaleLimit(const std::string& name, double value, double scale, T max,
                  T* out) {
  const double scaled = value * scale;
  if (!(scaled >= 0 && scaled < static_cast<double>(max))) {
    return Status::InvalidArgument(
        name + " must be in [0, " +
        std::to_string(static_cast<uint64_t>(max / scale)) + "]");
  }
  *out = static_cast<T>(scaled);
  return Status::OK();
}

}  // namespace ndss

#endif  // NDSS_COMMON_QUERY_CONTEXT_H_
