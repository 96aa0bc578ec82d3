#include "robust/governor.h"

#include "common/strings.h"
#include "core/checker.h"
#include "obs/obs.h"
#include "robust/fault_injector.h"

namespace incognito {

Status ExecutionGovernor::Check() {
  if (!trip_.ok()) return trip_;
  ++trips_.checks;
  if (cancel_ != nullptr && cancel_->Cancelled()) {
    ++trips_.cancel_trips;
    INCOGNITO_COUNT("governor.cancel_trips");
    trip_ = Status::Cancelled("cancelled by caller");
    return trip_;
  }
  if (deadline_.Expired()) {
    ++trips_.deadline_trips;
    INCOGNITO_COUNT("governor.deadline_trips");
    trip_ = Status::DeadlineExceeded("deadline expired");
    return trip_;
  }
  return Status::OK();
}

Status ExecutionGovernor::ChargeMemory(int64_t bytes) {
  if (INCOGNITO_FAULT_FIRED("governor.charge")) {
    // Behaves exactly like a refused charge, latch included — callers
    // (e.g. the cube builds) detect a stopped computation via Tripped().
    return LatchInjectedFailure("governor.charge");
  }
  if (!trip_.ok()) return trip_;
  if (!memory_.TryCharge(bytes)) {
    ++trips_.memory_trips;
    INCOGNITO_COUNT("governor.memory_trips");
    Status refused = Status::ResourceExhausted(StringPrintf(
        "memory budget exceeded: %lld bytes used + %lld requested > %lld "
        "limit",
        static_cast<long long>(memory_.used()),
        static_cast<long long>(bytes),
        static_cast<long long>(memory_.limit())));
    if (trip_.ok()) trip_ = refused;
    return refused;
  }
  return Status::OK();
}

Status ExecutionGovernor::LatchInjectedFailure(const char* site) {
  std::lock_guard<std::mutex> lock(shared_mu_);
  if (trip_.ok()) {
    ++trips_.memory_trips;
    INCOGNITO_COUNT("governor.memory_trips");
    trip_ = Status::ResourceExhausted(
        std::string("injected allocation failure (") + site + ")");
  }
  return trip_;
}

void ExecutionGovernor::ExportTrips(AlgorithmStats* stats) const {
  stats->governor_checks = trips_.checks;
  stats->deadline_trips = trips_.deadline_trips;
  stats->memory_trips = trips_.memory_trips;
  stats->cancel_trips = trips_.cancel_trips;
}

Status ExecutionGovernor::LatchSharedTrip(Status trip) {
  std::lock_guard<std::mutex> lock(shared_mu_);
  if (trip_.ok()) trip_ = std::move(trip);
  return trip_;
}

Status ExecutionGovernor::SharedTrip() const {
  std::lock_guard<std::mutex> lock(shared_mu_);
  return trip_;
}

void ExecutionGovernor::AbsorbShardTrips(const GovernorTrips& trips) {
  std::lock_guard<std::mutex> lock(shared_mu_);
  trips_.checks += trips.checks;
  trips_.deadline_trips += trips.deadline_trips;
  trips_.memory_trips += trips.memory_trips;
  trips_.cancel_trips += trips.cancel_trips;
}

// ---------------------------------------------------------------------------
// GovernorShard
// ---------------------------------------------------------------------------

GovernorShard::GovernorShard(ExecutionGovernor* parent,
                             int64_t lease_chunk_bytes)
    : parent_(parent),
      chunk_(lease_chunk_bytes > 0 ? lease_chunk_bytes
                                   : kDefaultLeaseChunkBytes) {}

GovernorShard::~GovernorShard() { Drain(); }

Status GovernorShard::Check() {
  if (!trip_.ok()) return trip_;
  ++trips_.checks;
  Status shared = parent_->SharedTrip();
  if (!shared.ok()) {
    trip_ = std::move(shared);  // tripped elsewhere; no local trip counter
    return trip_;
  }
  const CancelToken* cancel = parent_->cancel_token();
  if (cancel != nullptr && cancel->Cancelled()) {
    ++trips_.cancel_trips;
    INCOGNITO_COUNT("governor.cancel_trips");
    trip_ = parent_->LatchSharedTrip(Status::Cancelled("cancelled by caller"));
    return trip_;
  }
  if (parent_->deadline().Expired()) {
    ++trips_.deadline_trips;
    INCOGNITO_COUNT("governor.deadline_trips");
    trip_ =
        parent_->LatchSharedTrip(Status::DeadlineExceeded("deadline expired"));
    return trip_;
  }
  return Status::OK();
}

Status GovernorShard::ChargeMemory(int64_t bytes) {
  if (INCOGNITO_FAULT_FIRED("governor.charge")) {
    // Behaves exactly like a refused lease, latch included: the local and
    // shared trips are set so sibling workers stop at their next
    // checkpoint and the post-drain caller observes the failure.
    if (trip_.ok()) {
      ++trips_.memory_trips;
      INCOGNITO_COUNT("governor.memory_trips");
    }
    trip_ = parent_->LatchSharedTrip(Status::ResourceExhausted(
        "injected allocation failure (governor.charge)"));
    return trip_;
  }
  if (!trip_.ok()) return trip_;
  if (used_ + bytes > leased_) {
    int64_t need = used_ + bytes - leased_;
    // Round the lease up to whole chunks; on refusal retry at exact size,
    // so a global budget smaller than one chunk still admits what fits.
    int64_t grab = (need + chunk_ - 1) / chunk_ * chunk_;
    if (!parent_->TryLeaseMemory(grab)) {
      if (grab == need || !parent_->TryLeaseMemory(need)) {
        ++trips_.memory_trips;
        INCOGNITO_COUNT("governor.memory_trips");
        trip_ = parent_->LatchSharedTrip(Status::ResourceExhausted(
            StringPrintf("memory budget exceeded in worker shard: %lld "
                         "leased + %lld requested over %lld limit",
                         static_cast<long long>(leased_),
                         static_cast<long long>(need),
                         static_cast<long long>(parent_->memory().limit()))));
        return trip_;
      }
      grab = need;
    }
    leased_ += grab;
    if (leased_ > high_water_) high_water_ = leased_;
  }
  used_ += bytes;
  return Status::OK();
}

void GovernorShard::ReleaseMemory(int64_t bytes) { used_ -= bytes; }

void GovernorShard::Drain() {
  if (drained_) return;
  drained_ = true;
  parent_->ReturnLeasedMemory(leased_);
  leased_ = 0;
  used_ = 0;
  parent_->AbsorbShardTrips(trips_);
}

}  // namespace incognito
