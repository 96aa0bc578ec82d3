#ifndef INCOGNITO_SERVICE_SERVICE_H_
#define INCOGNITO_SERVICE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "robust/governor.h"
#include "service/job_spec.h"

namespace incognito {

/// Monotone per-core job identifier (1-based; 0 is never issued).
using JobId = int64_t;

/// Lifecycle of an admitted job. Queued jobs wait in their tenant's FIFO;
/// running jobs execute on a worker; done jobs hold their JobResult
/// forever (records are kept until the core is destroyed). Rejected
/// submissions never get a state — Submit returns the rejection status.
enum class JobState { kQueued, kRunning, kDone };

/// Wire spelling ("queued" / "running" / "done").
const char* JobStateName(JobState state);

/// A point-in-time view of one job, safe to take while the job runs: the
/// memory gauges read the job governor's atomics and everything else is
/// copied under the core's lock (never from the worker mid-run).
struct JobSnapshot {
  JobId id = 0;
  std::string tenant;
  JobModel model = JobModel::kKAnonymity;
  JobState state = JobState::kQueued;
  bool cancel_requested = false;
  /// The spec's partial_ok (the front-end folds it into the exit code a
  /// partial release maps to).
  bool partial_ok = false;
  /// Accounted bytes currently charged / high-water mark of the job's own
  /// governor (zero while queued or for ungoverned profiles).
  int64_t memory_used_bytes = 0;
  int64_t memory_peak_bytes = 0;
  /// Completion order (1, 2, ... in the order jobs finished); 0 until
  /// done. The fairness tests and the load bench key on this.
  int64_t finish_seq = 0;
};

/// Admission and scheduling policy for a ServiceCore.
struct ServiceConfig {
  /// Worker threads started by the constructor. Zero is valid and means
  /// "admit but do not execute" until StartWorkers is called — the tests
  /// and the load bench use that to stage deterministic queue states.
  int num_workers = 2;
  /// Global cap on QUEUED jobs (running jobs do not count). A submit over
  /// this cap is rejected with ResourceExhausted — the documented
  /// backpressure signal; clients retry after draining their own backlog.
  size_t queue_depth = 64;
  /// Per-tenant cap on queued jobs, the first quota checked: one tenant
  /// flooding its queue hits its own wall before the global one.
  size_t per_tenant_queue_depth = 16;
  /// Service-wide memory lease pool (0 = unlimited). Every admitted job
  /// leases its memory budget (or default_job_lease_bytes when the spec
  /// sets none) from this pool for its queued+running lifetime; a submit
  /// that cannot lease is rejected with ResourceExhausted.
  int64_t memory_limit_bytes = 0;
  /// Lease taken for jobs whose ExecProfile sets no memory budget.
  int64_t default_job_lease_bytes = 16ll << 20;
  /// Weighted-fair shares across tenants (stride scheduling); tenants not
  /// listed get weight 1. Higher weight = proportionally more dispatches
  /// under contention.
  std::map<std::string, double> tenant_weights;
};

/// Monotone admission/outcome counters (all-time, copied under the lock).
struct ServiceStats {
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t rejected_draining = 0;
  int64_t rejected_queue_full = 0;
  int64_t rejected_tenant_quota = 0;
  int64_t rejected_memory = 0;
  int64_t cancelled = 0;
  int64_t completed = 0;
};

/// The resident multi-tenant anonymization pipeline: admission control in
/// front of per-tenant FIFO queues, a stride (weighted-fair) scheduler
/// across tenants, and a worker pool executing jobs via ExecuteJob
/// (service/job_spec.h). This is the in-process form of the service; the
/// socket front-end (service/server.h) is a thin protocol adapter over it.
///
/// Isolation properties:
///  - Each job runs against its OWN ExecutionGovernor and CancelToken, so
///    one job's budget trip or cancellation never touches another's.
///  - FIFO within a tenant, stride scheduling across tenants: a tenant
///    with a flooded queue cannot starve another tenant's dispatches.
///  - Admission is bounded three ways (global queue depth, per-tenant
///    quota, memory lease pool); every rejection is ResourceExhausted,
///    the protocol's documented backpressure code.
///
/// All methods are thread-safe.
class ServiceCore {
 public:
  explicit ServiceCore(const ServiceConfig& config);
  /// Stops admission, cancels every queued and running job, and joins the
  /// workers. Use Drain() first for a graceful shutdown.
  ~ServiceCore();

  ServiceCore(const ServiceCore&) = delete;
  ServiceCore& operator=(const ServiceCore&) = delete;

  /// Admits a job or rejects it: FailedPrecondition while draining,
  /// ResourceExhausted when a queue/quota/lease bound is hit (fault site
  /// "service.admit" precedes the bound checks).
  Result<JobId> Submit(JobSpec spec);

  /// Point-in-time snapshot; NotFound for an unknown id.
  Result<JobSnapshot> Poll(JobId id) const;

  /// Blocks until the job is done and returns its result.
  Result<JobResult> Wait(JobId id);

  /// The result of a done job; FailedPrecondition while it is still
  /// queued or running, NotFound for an unknown id.
  Result<JobResult> FetchResult(JobId id) const;

  /// Cancels a job. Queued jobs complete immediately with a Cancelled
  /// result; running jobs get their token flipped and unwind at the next
  /// governor checkpoint into their model's documented sound partial.
  /// Cancelling a done job is a no-op.
  Status Cancel(JobId id);

  /// Graceful drain: stops admission (subsequent submits fail with
  /// FailedPrecondition) and blocks until every admitted job — running
  /// AND queued — has completed. The SIGTERM path of the daemon.
  void Drain();

  /// Starts `n` additional worker threads (used with num_workers = 0 to
  /// stage a queue before execution begins).
  void StartWorkers(int n);

  ServiceStats stats() const;

 private:
  struct JobRecord {
    JobId id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    bool cancel_requested = false;
    int64_t lease_bytes = 0;
    int64_t finish_seq = 0;
    CancelToken cancel;
    ExecutionGovernor governor;
    JobResult result;
  };

  /// One tenant's FIFO plus its stride-scheduler account: pass advances
  /// by stride = kStrideScale / weight per dispatch, and the scheduler
  /// always dispatches the non-empty tenant with the smallest pass.
  struct TenantQueue {
    std::deque<JobRecord*> queue;
    double weight = 1;
    double pass = 0;
  };

  void WorkerLoop();
  /// Weighted-fair pick; requires at least one queued job. Advances the
  /// winning tenant's pass and the virtual time.
  JobRecord* PickNextLocked();
  bool HasQueuedLocked() const { return queued_ > 0; }
  /// Marks a job finished under the lock and releases its lease.
  void FinishLocked(JobRecord* job);

  const ServiceConfig config_;
  /// Admission-side lease pool: every queued or running job's lease, limited
  /// to memory_limit_bytes.
  MemoryBudget lease_pool_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for queued jobs
  std::condition_variable done_cv_;  ///< Wait/Drain wait for completions
  std::map<JobId, std::unique_ptr<JobRecord>> jobs_;
  std::map<std::string, TenantQueue> tenants_;
  std::vector<std::thread> workers_;
  ServiceStats stats_;
  JobId next_id_ = 1;
  size_t queued_ = 0;
  int running_ = 0;
  int64_t finish_seq_ = 0;
  /// Stride-scheduler virtual time: pass of the most recent dispatch.
  /// Tenants whose queue goes non-empty re-enter at this point, so an
  /// idle tenant cannot bank credit against busy ones.
  double virtual_time_ = 0;
  bool draining_ = false;
  bool stopping_ = false;
};

}  // namespace incognito

#endif  // INCOGNITO_SERVICE_SERVICE_H_
