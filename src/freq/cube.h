#ifndef INCOGNITO_FREQ_CUBE_H_
#define INCOGNITO_FREQ_CUBE_H_

#include <cstdint>
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

  /// Builds the cube. Requires 1 <= qid.size() <= kMaxCubeQidAttributes
  /// (core/incognito.h). The root is one pool-parallel FrequencySet::
  /// ComputeBatch of the full attribute set. The projections then run one
  /// popcount tier at a time, from n-1 attributes down to 1, as one
  /// WorkerPool::Run each whose workers claim masks from a shared index
  /// (docs/PARALLELISM.md "Tier-by-tier cube build"). Every parent of a
  /// tier lies in the tier above, so each mask projects from the same
  /// parent — the one with the fewest groups, lowest mask first — and a
  /// build is bit-identical at every pool size, BuildInfo totals included.
  /// A 1-worker pool is the serial build.
  ///
  /// Every byte is charged to `governor`, and the cube holds its charges
  /// until it is discarded, so the governor must outlive it. The root is
  /// charged on the main thread ("cube.build" fault site) with the
  /// mask-indexed slot vector (2^n FrequencySet slots), then the per-tier
  /// mask lists, before either is allocated; the worker that makes a
  /// projection charges it before keeping it ("cube.project" fault site,
  /// once per projection), and a complete build releases the tier lists.
  /// A refused charge, a tripped deadline or a cancellation stops the
  /// build: it latches the governor and returns an empty cube with every
  /// charged byte — root, slots, tier lists and kept projections —
  /// released.
  static ZeroGenCube Build(const Table& table, const QuasiIdentifier& qid,
                           WorkerPool& pool, ExecutionGovernor& governor,
                           BuildInfo* info = nullptr);

  /// The zero-generalization frequency set for an attribute subset
  /// (ascending QID indices). Requires the subset to be non-empty and
  /// within the QID the cube was built for.
  const FrequencySet& Get(const std::vector<int32_t>& dims) const;

  size_t num_subsets() const { return sets_.empty() ? 0 : sets_.size() - 1; }

 private:
  static uint32_t MaskOf(const std::vector<int32_t>& dims);

  /// Indexed by attribute mask; slot 0 stays empty. Empty, with no
  /// capacity, after a trip.
  std::vector<FrequencySet> sets_;
  /// The root and the slot vector, and each build worker's projections.
  MemoryCharge root_charge_;
  std::vector<MemoryCharge> projection_charges_;
};

}  // namespace incognito

#endif  // INCOGNITO_FREQ_CUBE_H_
