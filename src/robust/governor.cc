#include "robust/governor.h"

#include "common/strings.h"
#include "core/checker.h"
#include "obs/obs.h"
#include "robust/fault_injector.h"

namespace incognito {

Status ExecutionGovernor::Check() {
  if (Tripped()) return TripStatus();
  checks_.fetch_add(1, std::memory_order_relaxed);
  if (cancel_ != nullptr && cancel_->Cancelled()) {
    return Latch(Status::Cancelled("cancelled by caller"));
  }
  if (deadline_.Expired()) {
    return Latch(Status::DeadlineExceeded("deadline expired"));
  }
  return Status::OK();
}

Status ExecutionGovernor::ChargeMemory(int64_t bytes) {
  if (INCOGNITO_FAULT_FIRED("governor.charge")) {
    // Behaves exactly like a refused charge, latch included — callers
    // (e.g. the cube builds) detect a stopped computation via Tripped().
    return LatchInjectedFailure("governor.charge");
  }
  if (Tripped()) return TripStatus();
  if (!memory_.TryCharge(bytes)) {
    return Latch(Status::ResourceExhausted(StringPrintf(
        "memory budget exceeded: %lld bytes used + %lld requested > %lld "
        "limit",
        static_cast<long long>(memory_.used()),
        static_cast<long long>(bytes),
        static_cast<long long>(memory_.limit()))));
  }
  return Status::OK();
}

Status ExecutionGovernor::LatchInjectedFailure(const char* site) {
  return Latch(Status::ResourceExhausted(
      std::string("injected allocation failure (") + site + ")"));
}

Status ExecutionGovernor::Latch(Status trip) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!tripped_.load(std::memory_order_relaxed)) {
    switch (trip.code()) {
      case StatusCode::kCancelled:
        ++trips_.cancel_trips;
        INCOGNITO_COUNT("governor.cancel_trips");
        break;
      case StatusCode::kDeadlineExceeded:
        ++trips_.deadline_trips;
        INCOGNITO_COUNT("governor.deadline_trips");
        break;
      case StatusCode::kResourceExhausted:
        ++trips_.memory_trips;
        INCOGNITO_COUNT("governor.memory_trips");
        break;
      default:
        break;
    }
    trip_ = std::move(trip);
    tripped_.store(true, std::memory_order_release);
  }
  return trip_;
}

Status ExecutionGovernor::TripStatus() const {
  // trip_ is written once, before the release store that sets tripped_.
  return Tripped() ? trip_ : Status::OK();
}

GovernorTrips ExecutionGovernor::trips() const {
  GovernorTrips trips;
  {
    std::lock_guard<std::mutex> lock(mu_);
    trips = trips_;
  }
  trips.checks = checks_.load(std::memory_order_relaxed);
  return trips;
}

void ExecutionGovernor::ExportTrips(AlgorithmStats* stats) const {
  const GovernorTrips totals = trips();
  stats->governor_checks = totals.checks;
  stats->deadline_trips = totals.deadline_trips;
  stats->memory_trips = totals.memory_trips;
  stats->cancel_trips = totals.cancel_trips;
}

}  // namespace incognito
