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
/// AlgorithmStats so run reports show *why* a run degraded.
struct GovernorTrips {
  int64_t checks = 0;          ///< cooperative checkpoints evaluated
  int64_t deadline_trips = 0;  ///< checkpoints that saw an expired deadline
  int64_t memory_trips = 0;    ///< charges refused by the memory budget
  int64_t cancel_trips = 0;    ///< checkpoints that saw cancellation
};

/// Bundles the three cooperative budgets every governed entry point
/// accepts: a Deadline, an optional CancelToken (owned by the caller, who
/// may Cancel() it from another thread), and a MemoryBudget.
///
/// Algorithms call Check() once per lattice node and ChargeMemory() at
/// every frequency-set/cube/hash-tree allocation site. The first non-OK
/// outcome latches: every later Check() returns the same status, so one
/// trip unwinds the whole search deterministically. Construct a fresh
/// governor per run; trip state and byte accounting are not reusable.
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
  /// explicit Cancel() wins the race against an expiring clock.
  Status Check();

  /// Charges `bytes` against the memory budget; kResourceExhausted (also
  /// latched) when the budget refuses. Compiled with INCOGNITO_FAULTS this
  /// is an allocation-failure injection site ("governor.charge").
  Status ChargeMemory(int64_t bytes);

  void ReleaseMemory(int64_t bytes) { memory_.Release(bytes); }

  /// Latches an injected allocation failure at `site` exactly as if the
  /// memory budget had refused a charge (used by the compute-path fault
  /// points in the rollup/cube code, whose enclosing functions cannot
  /// return a Status directly; the search unwinds at its next checkpoint
  /// or charge). Thread-safe. Returns the latched trip.
  Status LatchInjectedFailure(const char* site);

  bool Tripped() const { return !trip_.ok(); }
  const Status& TripStatus() const { return trip_; }
  const GovernorTrips& trips() const { return trips_; }
  const MemoryBudget& memory() const { return memory_; }
  const Deadline& deadline() const { return deadline_; }
  const CancelToken* cancel_token() const { return cancel_; }

  /// Snapshots this governor's trip counters into `stats` (the governed
  /// entry points call this before returning). Overwrite semantics: the
  /// stats fields always reflect this governor's lifetime totals, so
  /// repeated exports during one run never double-count.
  void ExportTrips(AlgorithmStats* stats) const;

  // --- Shard support (thread-safe; used by GovernorShard) -----------------
  //
  // The serial methods above touch trip state without locking, which is
  // fine for the single-threaded search loops. Parallel search instead
  // gives each worker a GovernorShard; shards reach the shared budget only
  // through the three calls below (an atomic budget operation plus a
  // mutex-guarded trip latch), so worker threads never race the governor's
  // plain members. The parallel driver itself only calls the serial
  // methods while the worker pool is quiescent.

  /// Leases `bytes` straight from the memory budget without touching trip
  /// state. Returns false when the budget refuses. Thread-safe.
  bool TryLeaseMemory(int64_t bytes) { return memory_.TryCharge(bytes); }

  /// Returns previously leased bytes to the budget. Thread-safe.
  void ReturnLeasedMemory(int64_t bytes) { memory_.Release(bytes); }

  /// First-trip latch shared by all shards: the first caller's status is
  /// stored and returned to everyone (so one worker's trip stops the
  /// others at their next checkpoint). Thread-safe.
  Status LatchSharedTrip(Status trip);

  /// The latched shared trip, or OK when none. Thread-safe.
  Status SharedTrip() const;

  /// Folds a drained shard's trip counters into this governor's totals so
  /// ExportTrips reflects the whole parallel run. Thread-safe: subset
  /// tasks drain their scans' transient shards on their own workers.
  void AbsorbShardTrips(const GovernorTrips& trips);

 private:
  Deadline deadline_;
  const CancelToken* cancel_ = nullptr;
  MemoryBudget memory_;
  GovernorTrips trips_;
  Status trip_;  // first trip, latched
  mutable std::mutex shared_mu_;  // guards trip_ and shard absorbs
};

/// A worker-local view of a shared ExecutionGovernor for parallel search
/// (docs/PARALLELISM.md). Each worker owns one shard and charges its
/// frequency sets against it; the shard leases bytes from the shared
/// MemoryBudget in `lease_chunk_bytes` slabs so workers do not contend on
/// the global counter for every small charge.
///
/// Leases are monotonic: a shard never returns bytes mid-run, only at
/// Drain(). Because every live lease is charged to the shared budget, the
/// sum of all shards' high-water (peak-lease) marks can never exceed the
/// global limit — the invariant tests/property_test.cc checks.
///
/// Check() observes the parent's Deadline/CancelToken and the shared trip
/// latch, so a trip in any worker (or in the main thread) stops every
/// shard within one node-check. Not thread-safe itself: one shard belongs
/// to exactly one worker, plus the quiescent main thread during merges.
class GovernorShard {
 public:
  static constexpr int64_t kDefaultLeaseChunkBytes = int64_t{256} << 10;

  explicit GovernorShard(ExecutionGovernor* parent,
                         int64_t lease_chunk_bytes = kDefaultLeaseChunkBytes);
  ~GovernorShard();
  GovernorShard(const GovernorShard&) = delete;
  GovernorShard& operator=(const GovernorShard&) = delete;

  /// The cooperative checkpoint: local latch, then the shared latch, then
  /// cancellation, then the deadline. A fresh trip is published to the
  /// shared latch so sibling shards stop too.
  Status Check();

  /// Charges `bytes` against this shard, leasing another slab from the
  /// shared budget when the current lease is exhausted. A refused lease
  /// trips (kResourceExhausted), latches shared, and is retried at exact
  /// size first so small global budgets behave like the serial path.
  /// Compiled with INCOGNITO_FAULTS this hits the "governor.charge" site.
  Status ChargeMemory(int64_t bytes);

  /// Returns `bytes` to this shard's local accounting (the lease itself
  /// stays; Drain returns it to the shared budget).
  void ReleaseMemory(int64_t bytes);

  /// Returns every leased byte to the parent and folds this shard's trip
  /// counters into it. Idempotent; called by the destructor. After Drain
  /// the shard must not be charged again.
  void Drain();

  int64_t leased_bytes() const { return leased_; }
  int64_t used_bytes() const { return used_; }
  /// Peak lease, == final lease since leases are monotonic until Drain.
  int64_t high_water_bytes() const { return high_water_; }
  const GovernorTrips& trips() const { return trips_; }
  bool tripped() const { return !trip_.ok(); }

 private:
  ExecutionGovernor* parent_;
  int64_t chunk_;
  int64_t leased_ = 0;
  int64_t used_ = 0;
  int64_t high_water_ = 0;
  GovernorTrips trips_;
  Status trip_;  // local copy of the first trip this shard observed
  bool drained_ = false;
};

}  // namespace incognito

#endif  // INCOGNITO_ROBUST_GOVERNOR_H_
