#ifndef INCOGNITO_ROBUST_GOVERNOR_H_
#define INCOGNITO_ROBUST_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>

#include "common/status.h"

namespace incognito {

struct AlgorithmStats;

/// A cooperative, monotonic-clock deadline. Default-constructed deadlines
/// never expire; AfterMillis(ms) expires `ms` milliseconds from now.
/// Checking an infinite deadline never reads the clock.
class Deadline {
 public:
  Deadline() = default;  // infinite

  static Deadline Infinite() { return Deadline(); }

  /// A deadline `ms` milliseconds from now; ms < 0 means infinite, ms == 0
  /// is already expired (useful to force an immediate budget trip).
  static Deadline AfterMillis(int64_t ms) {
    Deadline d;
    if (ms >= 0) {
      d.infinite_ = false;
      d.expires_ =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    }
    return d;
  }

  bool infinite() const { return infinite_; }

  bool Expired() const {
    return !infinite_ && std::chrono::steady_clock::now() >= expires_;
  }

  /// Seconds until expiry (negative once expired); +infinity when infinite.
  double RemainingSeconds() const {
    if (infinite_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(expires_ -
                                         std::chrono::steady_clock::now())
        .count();
  }

 private:
  bool infinite_ = true;
  std::chrono::steady_clock::time_point expires_{};
};

/// A cancellation flag settable from any thread. The governed algorithms
/// poll it at lattice-node granularity, so cancellation takes effect within
/// one node-check of Cancel() being called.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool Cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Byte accounting for the memory-hungry structures the search algorithms
/// build (frequency sets, the zero-generalization cube, Apriori hash
/// trees). Charges are approximate heap footprints reported by the
/// structures themselves (FrequencySet::MemoryBytes etc.); a limit of 0
/// means unlimited.
class MemoryBudget {
 public:
  MemoryBudget() = default;
  explicit MemoryBudget(int64_t limit_bytes) : limit_(limit_bytes) {}
  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Replaces the limit and clears the byte accounting. Call before a run,
  /// never mid-run.
  void SetLimit(int64_t limit_bytes) {
    limit_ = limit_bytes;
    used_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

  /// Adds `bytes` to the live total. Returns false — without charging —
  /// when the addition would push the total past the limit.
  bool TryCharge(int64_t bytes) {
    int64_t next = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (limit_ > 0 && next > limit_) {
      used_.fetch_sub(bytes, std::memory_order_relaxed);
      return false;
    }
    int64_t peak = peak_.load(std::memory_order_relaxed);
    while (next > peak &&
           !peak_.compare_exchange_weak(peak, next,
                                        std::memory_order_relaxed)) {
    }
    return true;
  }

  void Release(int64_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  int64_t limit() const { return limit_; }
  int64_t used() const { return used_.load(std::memory_order_relaxed); }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  int64_t limit_ = 0;  // 0 = unlimited
  std::atomic<int64_t> used_{0};
  std::atomic<int64_t> peak_{0};
};

/// Counts of governor activity during one governed run; exported into
/// AlgorithmStats so run reports show *why* a run degraded. Only the trip
/// that latches is counted, so each trip counter is 0 or 1 per run.
struct GovernorTrips {
  int64_t checks = 0;          ///< cooperative checkpoints evaluated
  int64_t deadline_trips = 0;  ///< the latched trip was an expired deadline
  int64_t memory_trips = 0;    ///< the latched trip was a refused charge
  int64_t cancel_trips = 0;    ///< the latched trip was a cancellation
};

/// Bundles the three cooperative budgets every governed entry point
/// accepts: a Deadline, an optional CancelToken (owned by the caller, who
/// may Cancel() it from another thread), and a MemoryBudget.
///
/// Algorithms call Check() once per lattice node and ChargeMemory() at
/// every frequency-set/cube/hash-tree allocation site. Every method but
/// the setters is safe to call from any thread, so all workers of a
/// parallel run charge and poll the one governor (docs/PARALLELISM.md
/// "One governor"); call the setters before the run. The first non-OK
/// outcome latches for every thread: every later Check() and
/// ChargeMemory() returns the same status, so one trip unwinds the whole
/// search deterministically. Construct a fresh governor per run; trip
/// state and byte accounting are not reusable.
class ExecutionGovernor {
 public:
  ExecutionGovernor() = default;
  ExecutionGovernor(const ExecutionGovernor&) = delete;
  ExecutionGovernor& operator=(const ExecutionGovernor&) = delete;

  void SetDeadline(Deadline deadline) { deadline_ = deadline; }
  void SetCancelToken(const CancelToken* token) { cancel_ = token; }
  void SetMemoryLimitBytes(int64_t bytes) { memory_.SetLimit(bytes); }

  /// The cooperative checkpoint: returns OK to continue, or the (latched)
  /// trip status. Cancellation is checked before the deadline so an
  /// explicit Cancel() wins the race against an expiring clock. Takes no
  /// lock until something has tripped.
  Status Check();

  /// Charges exactly `bytes` against the memory budget; kResourceExhausted
  /// (also latched) when the budget refuses. Compiled with INCOGNITO_FAULTS
  /// this is an allocation-failure injection site ("governor.charge").
  Status ChargeMemory(int64_t bytes);

  void ReleaseMemory(int64_t bytes) { memory_.Release(bytes); }

  /// Latches an injected allocation failure at `site` exactly as if the
  /// memory budget had refused a charge (used by the compute-path fault
  /// points in the rollup/cube code, whose enclosing functions cannot
  /// return a Status directly; the search unwinds at its next checkpoint
  /// or charge). Returns the latched trip.
  Status LatchInjectedFailure(const char* site);

  /// Latches `trip` unless another trip latched first, and returns the
  /// latched status. The trip that latches is counted once, by its code
  /// (kCancelled, kDeadlineExceeded, kResourceExhausted).
  Status Latch(Status trip);

  bool Tripped() const { return tripped_.load(std::memory_order_acquire); }
  /// The latched trip, or OK when nothing has tripped.
  Status TripStatus() const;
  GovernorTrips trips() const;
  const MemoryBudget& memory() const { return memory_; }

  /// Snapshots this governor's trip counters into `stats` (the governed
  /// entry points call this before returning). Overwrite semantics: the
  /// stats fields always reflect this governor's lifetime totals, so
  /// repeated exports during one run never double-count.
  void ExportTrips(AlgorithmStats* stats) const;

 private:
  // Read by every Check() and charge; written only by the setters and,
  // once, by the latching trip. Kept off the cache lines below, which
  // every charge and every Check() writes.
  alignas(64) Deadline deadline_;
  const CancelToken* cancel_ = nullptr;
  std::atomic<bool> tripped_{false};
  alignas(64) MemoryBudget memory_;
  alignas(64) std::atomic<int64_t> checks_{0};
  // The latch: trip_ and the trip counters are written once, under mu_,
  // before tripped_ publishes them.
  alignas(64) mutable std::mutex mu_;
  Status trip_;
  GovernorTrips trips_;  // checks stays 0 here; checks_ counts them
};

}  // namespace incognito

#endif  // INCOGNITO_ROBUST_GOVERNOR_H_
