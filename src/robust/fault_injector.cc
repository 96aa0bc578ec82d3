#include "robust/fault_injector.h"

#include <algorithm>
#include <csignal>

#include "common/random.h"
#include "common/strings.h"

namespace incognito {

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

const std::vector<std::string>& FaultInjector::KnownSites() {
  // Keep in sync with the call sites and the fault-site catalog in
  // docs/ROBUSTNESS.md; robust_test.cc iterates this list.
  static const std::vector<std::string>* sites = new std::vector<std::string>{
      "csv.read.open",
      "csv.write.open",
      "csv.write.io",
      "csv.write.rename",
      "hierarchy_csv.read.open",
      "hierarchy_csv.write.open",
      "hierarchy_csv.write.io",
      "hierarchy_csv.write.rename",
      "binary_io.read.open",
      "binary_io.read.io",
      "binary_io.write.open",
      "binary_io.write.io",
      "binary_io.write.rename",
      "governor.charge",
      "cube.build",
      "cube.project",
      "freq.batch.scan",
      "incognito.rollup",
      "incognito.subset.schedule",
      "bottom_up.rollup",
      "checkpoint.write.open",
      "checkpoint.write.io",
      "checkpoint.write.rename",
      "checkpoint.load.open",
      "service.admit",
      "service.job.run",
      "service.reply.write",
  };
  return *sites;
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  hits_.clear();
  scripted_.clear();
  kill_scripted_.clear();
  random_armed_ = false;
  rng_state_ = 0;
  probability_ = 0;
  fired_ = 0;
}

void FaultInjector::EnableRandom(uint64_t seed, double probability) {
  std::lock_guard<std::mutex> lock(mu_);
  random_armed_ = true;
  rng_state_ = seed;
  probability_ = probability;
}

void FaultInjector::ScriptFailNthHit(const std::string& site, int64_t nth) {
  std::lock_guard<std::mutex> lock(mu_);
  scripted_[site] = nth;
}

void FaultInjector::ScriptKillNthHit(const std::string& site, int64_t nth) {
  std::lock_guard<std::mutex> lock(mu_);
  kill_scripted_[site] = nth;
}

Status FaultInjector::Configure(const std::string& spec) {
  std::vector<std::string> parts = Split(spec, ':');
  if (parts.size() == 3 && parts[0] == "kill") {
    const std::vector<std::string>& known = KnownSites();
    if (std::find(known.begin(), known.end(), parts[1]) == known.end()) {
      return Status::InvalidArgument("unknown fault site '" + parts[1] +
                                     "'");
    }
    int64_t nth = 0;
    if (!ParseInt64(parts[2], &nth) || nth < 1) {
      return Status::InvalidArgument("bad fault spec '" + spec +
                                     "' (want kill:SITE:N with N >= 1)");
    }
    ScriptKillNthHit(parts[1], nth);
    return Status::OK();
  }
  if (parts.size() == 3 && parts[0] == "rand") {
    int64_t seed = 0;
    double prob = 0;
    if (!ParseInt64(parts[1], &seed) || !ParseDouble(parts[2], &prob) ||
        prob < 0 || prob > 1) {
      return Status::InvalidArgument("bad fault spec '" + spec +
                                     "' (want rand:SEED:PROB)");
    }
    EnableRandom(static_cast<uint64_t>(seed), prob);
    return Status::OK();
  }
  if (parts.size() == 2) {
    const std::vector<std::string>& known = KnownSites();
    if (std::find(known.begin(), known.end(), parts[0]) == known.end()) {
      return Status::InvalidArgument("unknown fault site '" + parts[0] +
                                     "'");
    }
    int64_t nth = 0;
    if (!ParseInt64(parts[1], &nth) || nth < 1) {
      return Status::InvalidArgument("bad fault spec '" + spec +
                                     "' (want SITE:N with N >= 1)");
    }
    ScriptFailNthHit(parts[0], nth);
    return Status::OK();
  }
  return Status::InvalidArgument(
      "bad fault spec '" + spec +
      "' (want SITE:N, kill:SITE:N, or rand:SEED:PROB)");
}

bool FaultInjector::Hit(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t count = ++hits_[site];
  auto kill_it = kill_scripted_.find(site);
  if (kill_it != kill_scripted_.end() && count == kill_it->second) {
    // A scripted crash: die with no unwinding, flushing, or cleanup — the
    // strongest failure the checkpoint/resume contract must survive.
    raise(SIGKILL);
  }
  auto it = scripted_.find(site);
  if (it != scripted_.end() && count == it->second) {
    scripted_.erase(it);  // one-shot: a retry of the operation succeeds
    ++fired_;
    return true;
  }
  if (random_armed_) {
    Rng rng(rng_state_);
    double draw = rng.NextDouble();
    rng_state_ = rng.Next();  // advance the deterministic stream
    if (draw < probability_) {
      ++fired_;
      return true;
    }
  }
  return false;
}

int64_t FaultInjector::HitCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hits_.find(site);
  return it == hits_.end() ? 0 : it->second;
}

int64_t FaultInjector::FaultsFired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

}  // namespace incognito
