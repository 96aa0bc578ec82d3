#include "freq/cube.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>

#include "core/worker_pool.h"
#include "obs/obs.h"
#include "robust/fault_injector.h"

namespace incognito {

uint32_t ZeroGenCube::MaskOf(const std::vector<int32_t>& dims) {
  uint32_t mask = 0;
  for (int32_t d : dims) mask |= 1u << d;
  return mask;
}

namespace {

SubsetNode ZeroNodeForMask(uint32_t mask) {
  SubsetNode node;
  for (int32_t d = 0; d < 32; ++d) {
    if (mask & (1u << d)) {
      node.dims.push_back(d);
      node.levels.push_back(0);
    }
  }
  return node;
}

}  // namespace

ZeroGenCube ZeroGenCube::Build(const Table& table, const QuasiIdentifier& qid,
                               BuildInfo* info,
                               ExecutionGovernor* governor,
                               SubstrateMode substrate) {
  INCOGNITO_SPAN("cube.build");
  INCOGNITO_PHASE_TIMER("phase.cube_build_seconds");
  INCOGNITO_COUNT("cube.builds");
  const size_t n = qid.size();
  assert(n >= 1 && n <= 24);
  ZeroGenCube cube;
  BuildInfo local;

  // Charges a freshly materialized frequency set against the governor's
  // memory budget; false stops the build (trip is latched in the governor).
  auto charge = [&](const FrequencySet& fs) {
    if (governor == nullptr) return true;
    if (!governor->Check().ok()) return false;
    // Fault site "cube.build": an injected allocation failure while
    // materializing a cube subset (the root scan or a projection) latches
    // like a refused charge and stops the build.
    if (INCOGNITO_FAULT_FIRED("cube.build")) {
      governor->LatchInjectedFailure("cube.build");
      return false;
    }
    return governor->ChargeMemory(static_cast<int64_t>(fs.MemoryBytes()))
        .ok();
  };

  const uint32_t full = (1u << n) - 1;  // n <= 24, so the shift is safe
  auto root = cube.sets_.emplace(
      full, FrequencySet::Compute(table, qid, ZeroNodeForMask(full),
                                  substrate));
  local.table_scans = 1;
  bool tripped = !charge(root.first->second);
  if (tripped) cube.sets_.clear();

  // Process masks in decreasing popcount order; each mask is aggregated
  // from the already-computed superset with the fewest groups.
  std::vector<uint32_t> masks;
  for (uint32_t m = 1; m < full; ++m) masks.push_back(m);
  std::sort(masks.begin(), masks.end(), [](uint32_t a, uint32_t b) {
    int pa = __builtin_popcount(a), pb = __builtin_popcount(b);
    if (pa != pb) return pa > pb;
    return a < b;
  });
  for (uint32_t m : masks) {
    if (tripped) break;
    // Candidate parents: m plus one attribute not in m.
    const FrequencySet* best = nullptr;
    for (size_t d = 0; d < n; ++d) {
      uint32_t parent = m | (1u << d);
      if (parent == m) continue;
      auto it = cube.sets_.find(parent);
      if (it != cube.sets_.end() &&
          (best == nullptr || it->second.NumGroups() < best->NumGroups())) {
        best = &it->second;
      }
    }
    assert(best != nullptr);
    auto inserted = cube.sets_.emplace(
        m, best->ProjectTo(ZeroNodeForMask(m), qid, substrate));
    ++local.projections;
    if (!charge(inserted.first->second)) {
      // The just-built set was refused: drop it (it was never charged) and
      // stop; earlier sets stay charged until ReleaseMemory.
      cube.sets_.erase(inserted.first);
      tripped = true;
    }
  }

  INCOGNITO_COUNT_ADD("cube.subsets",
                      static_cast<int64_t>(cube.sets_.size()));
  local.num_subsets = cube.sets_.size();
  for (const auto& [mask, fs] : cube.sets_) {
    (void)mask;
    local.total_groups += fs.NumGroups();
    local.total_bytes += fs.MemoryBytes();
  }
  if (info != nullptr) *info = local;
  return cube;
}

ZeroGenCube ZeroGenCube::BuildParallel(const Table& table,
                                       const QuasiIdentifier& qid,
                                       WorkerPool& pool, BuildInfo* info,
                                       ExecutionGovernor* governor,
                                       SubstrateMode substrate) {
  INCOGNITO_SPAN("cube.build");
  INCOGNITO_PHASE_TIMER("phase.cube_build_seconds");
  INCOGNITO_COUNT("cube.builds");
  INCOGNITO_COUNT("cube.parallel_builds");
  const size_t n = qid.size();
  assert(n >= 1 && n <= 24);
  ZeroGenCube cube;
  BuildInfo local;
  const uint32_t full = (1u << n) - 1;

  // Root: one parallel scan of T (the cube's only table access). A trip
  // inside the scan latches the governor and yields an empty set; the
  // main-thread charge below observes the latch via Check().
  FrequencySet root_fs = std::move(
      FrequencySet::ComputeBatch(table, qid, {ZeroNodeForMask(full)}, &pool,
                                 governor, substrate)
          .front());
  local.table_scans = 1;

  // Same root charge protocol as the serial Build, fault site included.
  bool tripped = false;
  int64_t root_bytes = 0;
  if (governor != nullptr) {
    if (!governor->Check().ok()) {
      tripped = true;
    } else if (INCOGNITO_FAULT_FIRED("cube.build")) {
      governor->LatchInjectedFailure("cube.build");
      tripped = true;
    } else {
      root_bytes = static_cast<int64_t>(root_fs.MemoryBytes());
      if (!governor->ChargeMemory(root_bytes).ok()) {
        root_bytes = 0;
        tripped = true;
      }
    }
  }
  if (tripped) {
    if (info != nullptr) *info = local;
    return cube;
  }
  cube.sets_.emplace(full, std::move(root_fs));

  // Pre-insert every proper subset so the workers never mutate the map
  // structure; each slot is written by exactly one worker and published
  // to its children through the scheduler mutex.
  for (uint32_t m = 1; m < full; ++m) cube.sets_.emplace(m, FrequencySet());
  std::vector<FrequencySet*> slot(static_cast<size_t>(full) + 1, nullptr);
  for (auto& [mask, fs] : cube.sets_) slot[mask] = &fs;

  // Dependency counting: a mask becomes ready only when ALL of its
  // parents (supersets with one extra attribute) are materialized, so the
  // serial best-parent rule — fewest groups, lowest parent mask — picks
  // the same parent no matter which worker runs the projection, or when.
  std::vector<int32_t> deps(static_cast<size_t>(full) + 1, 0);
  for (uint32_t m = 1; m < full; ++m) {
    deps[m] = static_cast<int32_t>(n) - __builtin_popcount(m);
  }

  // Ready masks, ordered by decreasing popcount then ascending mask —
  // the serial processing order, which fills the wide (high-popcount)
  // tiers first and keeps the most independent work in flight.
  struct MaskOrder {
    bool operator()(uint32_t a, uint32_t b) const {
      int pa = __builtin_popcount(a), pb = __builtin_popcount(b);
      if (pa != pb) return pa > pb;
      return a < b;
    }
  };
  std::set<uint32_t, MaskOrder> ready;
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = full - 1;  // proper subsets still to materialize
  bool stopped = false;
  int64_t projections = 0;

  // The root is materialized: seed its children (popcount n-1 masks).
  for (size_t d = 0; d < n; ++d) {
    uint32_t child = full & ~(1u << d);
    if (child != 0 && --deps[child] == 0) ready.insert(child);
  }

  const size_t workers = static_cast<size_t>(pool.size());
  std::vector<std::unique_ptr<GovernorShard>> shards;
  if (governor != nullptr) {
    shards.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      shards.push_back(std::make_unique<GovernorShard>(governor));
    }
  }

  if (remaining > 0) {
    // Run(workers, ...) hands every worker its own index: each runs the
    // scheduler loop below until the DAG is drained or the build stops.
    pool.Run(workers, [&](int w, size_t, size_t) {
      INCOGNITO_SPAN("cube.project.worker");
      GovernorShard* shard =
          governor != nullptr ? shards[static_cast<size_t>(w)].get() : nullptr;
      std::unique_lock<std::mutex> lock(mu);
      for (;;) {
        cv.wait(lock,
                [&] { return stopped || remaining == 0 || !ready.empty(); });
        if (stopped || remaining == 0) return;
        const uint32_t m = *ready.begin();
        ready.erase(ready.begin());
        lock.unlock();

        bool failed = false;
        if (shard != nullptr) {
          if (!shard->Check().ok()) {
            failed = true;
          } else if (INCOGNITO_FAULT_FIRED("cube.project")) {
            // Fault site "cube.project": an injected allocation failure
            // in one worker's projection; siblings stop at their next
            // checkpoint.
            governor->LatchInjectedFailure("cube.project");
            failed = true;
          }
        }
        if (!failed) {
          // All parents are materialized (the dependency invariant), so
          // this scan is the serial one: ascending candidate order,
          // first strict improvement wins.
          const FrequencySet* best = nullptr;
          for (size_t d = 0; d < n; ++d) {
            uint32_t parent = m | (1u << d);
            if (parent == m) continue;
            const FrequencySet* p = slot[parent];
            if (best == nullptr || p->NumGroups() < best->NumGroups()) {
              best = p;
            }
          }
          INCOGNITO_COUNT("cube.parallel_projections");
          *slot[m] = best->ProjectTo(ZeroNodeForMask(m), qid, substrate);
          if (shard != nullptr &&
              !shard
                   ->ChargeMemory(
                       static_cast<int64_t>(slot[m]->MemoryBytes()))
                   .ok()) {
            // Refused: the set was never admitted — drop it so the final
            // footprint only covers charged sets.
            *slot[m] = FrequencySet();
            failed = true;
          }
        }

        lock.lock();
        if (failed) {
          stopped = true;
          cv.notify_all();
          return;
        }
        ++projections;
        --remaining;
        for (size_t d = 0; d < n; ++d) {
          if ((m & (1u << d)) == 0) continue;
          uint32_t child = m & ~(1u << d);
          if (child != 0 && --deps[child] == 0) ready.insert(child);
        }
        if (remaining == 0 || !ready.empty()) cv.notify_all();
      }
    });
  }
  local.projections = projections;

  // The worker charges were transient leases: drain them, then (on
  // success) charge the whole projection footprint once on the main
  // thread. The recharge always fits — the drained leases covered at
  // least this many bytes — so the governor's live total matches the
  // serial build and ReleaseMemory balances it back to zero.
  for (auto& shard : shards) shard->Drain();
  bool build_tripped =
      stopped || (governor != nullptr && !governor->SharedTrip().ok());
  if (!build_tripped && governor != nullptr) {
    int64_t projection_bytes = 0;
    for (const auto& [mask, fs] : cube.sets_) {
      if (mask != full) {
        projection_bytes += static_cast<int64_t>(fs.MemoryBytes());
      }
    }
    build_tripped =
        projection_bytes > 0 && !governor->ChargeMemory(projection_bytes).ok();
  }
  if (build_tripped) {
    cube.sets_.clear();
    if (governor != nullptr) governor->ReleaseMemory(root_bytes);
    if (info != nullptr) {
      local.num_subsets = 0;
      *info = local;
    }
    return cube;
  }

  INCOGNITO_COUNT_ADD("cube.subsets",
                      static_cast<int64_t>(cube.sets_.size()));
  local.num_subsets = cube.sets_.size();
  for (const auto& [mask, fs] : cube.sets_) {
    (void)mask;
    local.total_groups += fs.NumGroups();
    local.total_bytes += fs.MemoryBytes();
  }
  if (info != nullptr) *info = local;
  return cube;
}

void ZeroGenCube::ReleaseMemory(ExecutionGovernor* governor) const {
  if (governor == nullptr) return;
  for (const auto& [mask, fs] : sets_) {
    (void)mask;
    governor->ReleaseMemory(static_cast<int64_t>(fs.MemoryBytes()));
  }
}

const FrequencySet& ZeroGenCube::Get(const std::vector<int32_t>& dims) const {
  auto it = sets_.find(MaskOf(dims));
  assert(it != sets_.end() && "subset not covered by this cube");
  return it->second;
}

}  // namespace incognito
