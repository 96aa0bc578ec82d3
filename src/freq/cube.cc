#include "freq/cube.h"

#include <atomic>
#include <cassert>
#include <memory>

#include "core/incognito.h"
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
                               WorkerPool& pool, BuildInfo* info,
                               ExecutionGovernor* governor) {
  INCOGNITO_SPAN("cube.build");
  INCOGNITO_PHASE_TIMER("phase.cube_build_seconds");
  INCOGNITO_COUNT("cube.builds");
  const size_t n = qid.size();
  assert(n >= 1 && n <= kMaxCubeQidAttributes);
  ZeroGenCube cube;
  BuildInfo local;
  const uint32_t full = (1u << n) - 1;

  // Root: one parallel scan of T (the cube's only table access). A trip
  // inside the scan latches the governor and yields an empty set; the
  // main-thread charge below observes the latch via Check().
  FrequencySet root_fs = std::move(
      FrequencySet::ComputeBatch(table, qid, {ZeroNodeForMask(full)}, &pool,
                                 governor)
          .front());
  local.table_scans = 1;

  // The root is charged with the mask-indexed slot vector and the tier
  // lists, before either is allocated; the tier lists are released once
  // the last tier is built, the rest by ReleaseMemory.
  const int64_t slot_bytes =
      static_cast<int64_t>((size_t{full} + 1) * sizeof(FrequencySet));
  const int64_t tier_bytes =
      static_cast<int64_t>((size_t{full} - 1) * sizeof(uint32_t));
  bool tripped = false;
  int64_t held_bytes = 0;
  if (governor != nullptr) {
    if (!governor->Check().ok()) {
      tripped = true;
    } else if (INCOGNITO_FAULT_FIRED("cube.build")) {
      // Fault site "cube.build": an injected allocation failure while
      // materializing the root latches like a refused charge.
      governor->LatchInjectedFailure("cube.build");
      tripped = true;
    } else {
      held_bytes = static_cast<int64_t>(root_fs.MemoryBytes()) + slot_bytes +
                   tier_bytes;
      if (!governor->ChargeMemory(held_bytes).ok()) {
        held_bytes = 0;
        tripped = true;
      }
    }
  }
  if (tripped) {
    if (info != nullptr) *info = local;
    return cube;
  }
  cube.sets_.resize(static_cast<size_t>(full) + 1);
  cube.sets_[full] = std::move(root_fs);

  // tiers[p]: the proper subsets of p attributes, ascending, reserved to
  // exactly C(n, p) masks.
  std::vector<std::vector<uint32_t>> tiers(n);
  for (size_t p = 1, count = n; p < n; count = count * (n - p) / (p + 1), ++p) {
    tiers[p].reserve(count);
  }
  for (uint32_t m = 1; m < full; ++m) {
    tiers[static_cast<size_t>(__builtin_popcount(m))].push_back(m);
  }

  const size_t workers = static_cast<size_t>(pool.size());
  std::vector<std::unique_ptr<GovernorShard>> shards;
  if (governor != nullptr) {
    shards.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      shards.push_back(std::make_unique<GovernorShard>(governor));
    }
  }

  std::atomic<bool> stopped{false};
  std::atomic<int64_t> projections{0};
  // Each Run's barrier publishes a finished tier to the next one.
  for (size_t p = n - 1; p >= 1 && !stopped.load(); --p) {
    const std::vector<uint32_t>& tier = tiers[p];
    std::atomic<size_t> next{0};
    pool.Run(workers, [&](int w, size_t, size_t) {
      INCOGNITO_SPAN("cube.project.worker");
      GovernorShard* shard =
          governor != nullptr ? shards[static_cast<size_t>(w)].get() : nullptr;
      for (size_t t = next.fetch_add(1); t < tier.size() && !stopped.load();
           t = next.fetch_add(1)) {
        const uint32_t m = tier[t];
        if (shard != nullptr) {
          if (!shard->Check().ok()) {
            stopped = true;
            return;
          }
          // Fault site "cube.project": an injected allocation failure in
          // one worker's projection; siblings stop at their next claim.
          if (INCOGNITO_FAULT_FIRED("cube.project")) {
            governor->LatchInjectedFailure("cube.project");
            stopped = true;
            return;
          }
        }
        // Candidate parents, m plus one attribute, in ascending order: the
        // first strict improvement wins.
        const FrequencySet* best = nullptr;
        for (size_t d = 0; d < n; ++d) {
          const uint32_t parent = m | (1u << d);
          if (parent == m) continue;
          const FrequencySet* candidate = &cube.sets_[parent];
          if (best == nullptr || candidate->NumGroups() < best->NumGroups()) {
            best = candidate;
          }
        }
        FrequencySet projected = best->ProjectTo(ZeroNodeForMask(m), qid);
        if (shard != nullptr &&
            !shard->ChargeMemory(static_cast<int64_t>(projected.MemoryBytes()))
                 .ok()) {
          // Refused: the set was never admitted, so it is not kept.
          stopped = true;
          return;
        }
        cube.sets_[m] = std::move(projected);
        ++projections;
      }
    });
  }
  local.projections = projections.load();

  // The worker charges were transient leases: drain them, then (on
  // success) charge the whole projection footprint once on the main
  // thread. The recharge always fits — the drained leases covered at
  // least this many bytes — so ReleaseMemory balances it back to zero.
  for (auto& shard : shards) shard->Drain();
  bool build_tripped =
      stopped.load() || (governor != nullptr && !governor->SharedTrip().ok());
  if (!build_tripped && governor != nullptr) {
    int64_t projection_bytes = 0;
    for (uint32_t m = 1; m < full; ++m) {
      projection_bytes += static_cast<int64_t>(cube.sets_[m].MemoryBytes());
    }
    build_tripped =
        projection_bytes > 0 && !governor->ChargeMemory(projection_bytes).ok();
  }
  if (build_tripped) {
    std::vector<FrequencySet>().swap(cube.sets_);
    if (governor != nullptr) governor->ReleaseMemory(held_bytes);
    if (info != nullptr) *info = local;
    return cube;
  }
  if (governor != nullptr) governor->ReleaseMemory(tier_bytes);

  INCOGNITO_COUNT_ADD("cube.subsets", static_cast<int64_t>(full));
  local.num_subsets = full;
  for (const FrequencySet& fs : cube.sets_) {
    local.total_groups += fs.NumGroups();
    local.total_bytes += fs.MemoryBytes();
  }
  if (info != nullptr) *info = local;
  return cube;
}

void ZeroGenCube::ReleaseMemory(ExecutionGovernor* governor) const {
  if (governor == nullptr) return;
  int64_t bytes = static_cast<int64_t>(sets_.size() * sizeof(FrequencySet));
  for (const FrequencySet& fs : sets_) {
    bytes += static_cast<int64_t>(fs.MemoryBytes());
  }
  governor->ReleaseMemory(bytes);
}

const FrequencySet& ZeroGenCube::Get(const std::vector<int32_t>& dims) const {
  const uint32_t mask = MaskOf(dims);
  assert(mask != 0 && mask < sets_.size() &&
         "subset not covered by this cube");
  return sets_[mask];
}

}  // namespace incognito
