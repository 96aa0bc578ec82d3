#ifndef INCOGNITO_FREQ_CUBE_H_
#define INCOGNITO_FREQ_CUBE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/quasi_identifier.h"
#include "freq/frequency_set.h"
#include "relation/table.h"
#include "robust/governor.h"

namespace incognito {

class WorkerPool;

/// The pre-computed zero-generalization frequency sets used by Cube
/// Incognito (paper §3.3.2): for every non-empty subset of the
/// quasi-identifier attributes, the frequency set of T at the lowest level
/// of generalization. Built bottom-up in data-cube fashion — one scan of T
/// for the full attribute set, then each smaller subset is aggregated from
/// an already-computed superset, never from the table.
class ZeroGenCube {
 public:
  /// Statistics about a cube build (reported by the Fig. 12 bench).
  struct BuildInfo {
    size_t num_subsets = 0;    ///< frequency sets materialized (2^n - 1)
    size_t total_groups = 0;   ///< sum of group counts across subsets
    size_t total_bytes = 0;    ///< approximate memory footprint
    int64_t table_scans = 0;   ///< scans of T (always 1)
    int64_t projections = 0;   ///< cube-style aggregations performed
  };

  ZeroGenCube() = default;

  /// Builds the cube. Requires 1 <= qid.size() <= 24. When `governor` is
  /// non-null, every materialized frequency set is charged against its
  /// memory budget; a refused charge (or a tripped deadline/cancellation)
  /// stops the build early — the caller detects this via
  /// governor->Tripped() and must not use the incomplete cube.
  ///
  /// `substrate` selects the group-by engine for the root scan and every
  /// projection (freq/substrate.h); all modes build the bit-identical
  /// cube, BuildInfo byte totals included.
  static ZeroGenCube Build(const Table& table, const QuasiIdentifier& qid,
                           BuildInfo* info = nullptr,
                           ExecutionGovernor* governor = nullptr,
                           SubstrateMode substrate = SubstrateMode::kAuto);

  /// Parallel twin of Build (docs/PARALLELISM.md "Intra-node
  /// parallelism"): the root scan is a pool-parallel FrequencySet::
  /// ComputeBatch of one, and the per-mask projections — which form a DAG
  /// (every mask depends on its one-attribute supersets) — are scheduled
  /// by decreasing popcount with dependency counting, so independent
  /// projections at the same popcount run concurrently across the pool.
  /// A mask is only scheduled once ALL of its parents are materialized,
  /// which keeps the best-parent choice (fewest groups, lowest parent
  /// mask) deterministic; a complete build is bit-identical to Build,
  /// BuildInfo totals included.
  ///
  /// Governed builds charge each projection to the running worker's
  /// private GovernorShard ("cube.project" fault site per projection;
  /// "cube.build" at the main-thread root charge, as in Build). The
  /// transient shard leases drain at the end and a successful build
  /// re-charges the exact footprint on the main thread, so the governor's
  /// live total — and ReleaseMemory's balance back to zero — match the
  /// serial build. A tripped build latches the governor and returns an
  /// empty cube with every charged byte released.
  static ZeroGenCube BuildParallel(const Table& table,
                                   const QuasiIdentifier& qid,
                                   WorkerPool& pool, BuildInfo* info = nullptr,
                                   ExecutionGovernor* governor = nullptr,
                                   SubstrateMode substrate =
                                       SubstrateMode::kAuto);

  /// Releases every byte Build() charged against `governor` (call when the
  /// cube is discarded).
  void ReleaseMemory(ExecutionGovernor* governor) const;

  /// The zero-generalization frequency set for an attribute subset
  /// (ascending QID indices). Requires the subset to be non-empty and
  /// within the QID the cube was built for.
  const FrequencySet& Get(const std::vector<int32_t>& dims) const;

  size_t num_subsets() const { return sets_.size(); }

 private:
  static uint32_t MaskOf(const std::vector<int32_t>& dims);

  std::unordered_map<uint32_t, FrequencySet> sets_;
};

}  // namespace incognito

#endif  // INCOGNITO_FREQ_CUBE_H_
