#include "service/service.h"

#include <algorithm>
#include <utility>

#include "robust/fault_injector.h"

namespace incognito {
namespace {

/// Stride numerator: pass advances by kStrideScale / weight per dispatch,
/// so a weight-3 tenant is dispatched three times per weight-1 dispatch
/// under contention.
constexpr double kStrideScale = 1 << 20;

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
  }
  return "queued";
}

ServiceCore::ServiceCore(const ServiceConfig& config)
    : config_(config), lease_pool_(config.memory_limit_bytes) {
  StartWorkers(config_.num_workers);
}

ServiceCore::~ServiceCore() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    draining_ = true;
    // Queued jobs are cancelled in place — no worker will pick them up.
    for (auto& [name, tenant] : tenants_) {
      for (JobRecord* job : tenant.queue) {
        job->cancel_requested = true;
        job->result.status = Status::Cancelled("service shutting down");
        FinishLocked(job);
        ++stats_.cancelled;
      }
      tenant.queue.clear();
    }
    queued_ = 0;
    // Running jobs unwind at their next governor checkpoint.
    for (auto& [id, job] : jobs_) {
      if (job->state == JobState::kRunning) {
        job->cancel_requested = true;
        job->cancel.Cancel();
      }
    }
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

Result<JobId> ServiceCore::Submit(JobSpec spec) {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.submitted;
  if (draining_ || stopping_) {
    ++stats_.rejected_draining;
    return Status::FailedPrecondition(
        "service is draining; not accepting new jobs");
  }
  INCOGNITO_FAULT_POINT(
      "service.admit",
      Status::ResourceExhausted("injected fault at service.admit"));
  if (queued_ >= config_.queue_depth) {
    ++stats_.rejected_queue_full;
    return Status::ResourceExhausted(
        "admission queue full (backpressure: retry after a completion)");
  }
  auto [it, created] = tenants_.try_emplace(spec.tenant);
  TenantQueue& tenant = it->second;
  if (created) {
    auto w = config_.tenant_weights.find(spec.tenant);
    if (w != config_.tenant_weights.end() && w->second > 0) {
      tenant.weight = w->second;
    }
  }
  if (tenant.queue.size() >= config_.per_tenant_queue_depth) {
    ++stats_.rejected_tenant_quota;
    return Status::ResourceExhausted(
        "tenant '" + spec.tenant +
        "' queue quota full (backpressure: retry after a completion)");
  }
  int64_t lease = spec.exec.memory_budget_bytes > 0
                      ? spec.exec.memory_budget_bytes
                      : config_.default_job_lease_bytes;
  if (config_.memory_limit_bytes > 0 &&
      !lease_pool_.TryCharge(lease)) {
    ++stats_.rejected_memory;
    return Status::ResourceExhausted(
        "service memory lease pool exhausted (backpressure: retry after a "
        "completion)");
  }

  auto record = std::make_unique<JobRecord>();
  record->id = next_id_++;
  record->spec = std::move(spec);
  record->lease_bytes = config_.memory_limit_bytes > 0 ? lease : 0;
  JobRecord* job = record.get();
  jobs_.emplace(job->id, std::move(record));
  // A tenant re-entering the schedule starts at the current virtual time:
  // idling must not bank credit against the busy tenants.
  if (tenant.queue.empty()) {
    tenant.pass = std::max(tenant.pass, virtual_time_);
  }
  tenant.queue.push_back(job);
  ++queued_;
  ++stats_.admitted;
  work_cv_.notify_one();
  return job->id;
}

Result<JobSnapshot> ServiceCore::Poll(JobId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job id " + std::to_string(id));
  }
  const JobRecord& job = *it->second;
  JobSnapshot snapshot;
  snapshot.id = job.id;
  snapshot.tenant = job.spec.tenant;
  snapshot.model = job.spec.model;
  snapshot.state = job.state;
  snapshot.cancel_requested = job.cancel_requested;
  snapshot.partial_ok = job.spec.partial_ok;
  // Atomic gauges only: the worker mutates everything else in the record
  // outside the lock while the job runs.
  snapshot.memory_used_bytes = job.governor.memory().used();
  snapshot.memory_peak_bytes = job.governor.memory().peak();
  snapshot.finish_seq = job.finish_seq;
  return snapshot;
}

Result<JobResult> ServiceCore::Wait(JobId id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job id " + std::to_string(id));
  }
  JobRecord* job = it->second.get();
  done_cv_.wait(lock, [job] { return job->state == JobState::kDone; });
  return job->result;
}

Result<JobResult> ServiceCore::FetchResult(JobId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job id " + std::to_string(id));
  }
  const JobRecord& job = *it->second;
  if (job.state != JobState::kDone) {
    return Status::FailedPrecondition(
        "job " + std::to_string(id) + " is still " +
        JobStateName(job.state));
  }
  return job.result;
}

Status ServiceCore::Cancel(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job id " + std::to_string(id));
  }
  JobRecord* job = it->second.get();
  if (job->state == JobState::kDone) return Status::OK();
  job->cancel_requested = true;
  if (job->state == JobState::kQueued) {
    TenantQueue& tenant = tenants_[job->spec.tenant];
    tenant.queue.erase(
        std::find(tenant.queue.begin(), tenant.queue.end(), job));
    --queued_;
    job->result.status = Status::Cancelled("cancelled while queued");
    FinishLocked(job);
    ++stats_.cancelled;
    done_cv_.notify_all();
  } else {
    job->cancel.Cancel();
  }
  return Status::OK();
}

void ServiceCore::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  done_cv_.wait(lock, [this] { return queued_ == 0 && running_ == 0; });
}

void ServiceCore::StartWorkers(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ServiceStats ServiceCore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

ServiceCore::JobRecord* ServiceCore::PickNextLocked() {
  TenantQueue* best = nullptr;
  for (auto& [name, tenant] : tenants_) {
    if (tenant.queue.empty()) continue;
    if (best == nullptr || tenant.pass < best->pass) best = &tenant;
  }
  JobRecord* job = best->queue.front();
  best->queue.pop_front();
  --queued_;
  virtual_time_ = best->pass;
  best->pass += kStrideScale / best->weight;
  return job;
}

void ServiceCore::FinishLocked(JobRecord* job) {
  job->state = JobState::kDone;
  job->finish_seq = ++finish_seq_;
  if (job->lease_bytes > 0) {
    lease_pool_.Release(job->lease_bytes);
    job->lease_bytes = 0;
  }
}

void ServiceCore::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock,
                  [this] { return stopping_ || HasQueuedLocked(); });
    if (stopping_) return;  // queued jobs were cancelled by the destructor
    JobRecord* job = PickNextLocked();
    job->state = JobState::kRunning;
    ++running_;
    // The job's own cancel token makes every run governed (and therefore
    // cancellable) without touching the caller's budgets; the spec copy
    // keeps the record's spec immutable for Poll.
    JobSpec spec = job->spec;
    spec.exec.cancel = &job->cancel;
    lock.unlock();
    JobResult result = ExecuteJob(spec, &job->governor);
    lock.lock();
    job->result = std::move(result);
    FinishLocked(job);
    --running_;
    ++stats_.completed;
    done_cv_.notify_all();
  }
}

}  // namespace incognito
