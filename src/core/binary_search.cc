#include "core/binary_search.h"

#include "common/stopwatch.h"
#include "freq/frequency_set.h"
#include "lattice/lattice.h"
#include "obs/obs.h"

namespace incognito {

namespace {

/// Checks the generalizations at one height; returns true at the first
/// k-anonymous node found (short-circuit, as one witness suffices for the
/// binary search step). Under a governor, polls it per node and charges
/// each probe's frequency set; a trip propagates as the status.
Result<bool> AnyAnonymousAtHeight(const Table& table,
                                  const QuasiIdentifier& qid,
                                  const GeneralizationLattice& lattice,
                                  int32_t h,
                                  const AnonymizationConfig& config,
                                  AlgorithmStats* stats,
                                  ExecutionGovernor* governor) {
  INCOGNITO_SPAN("binary_search.height_probe");
  INCOGNITO_COUNT("binary_search.height_probes");
  for (const LevelVector& levels : lattice.NodesAtHeight(h)) {
    if (governor != nullptr) {
      INCOGNITO_RETURN_IF_ERROR(governor->Check());
    }
    SubsetNode node = SubsetNode::Full(levels);
    ++stats->nodes_checked;
    ++stats->table_scans;
    FrequencySet fs = std::move(
        FrequencySet::ComputeBatch(table, qid, {node}, nullptr, governor)
            .front());
    int64_t fs_bytes = static_cast<int64_t>(fs.MemoryBytes());
    if (governor != nullptr) {
      INCOGNITO_RETURN_IF_ERROR(governor->ChargeMemory(fs_bytes));
    }
    stats->freq_groups_built += static_cast<int64_t>(fs.NumGroups());
    bool anonymous = fs.IsKAnonymous(config.k, config.max_suppressed);
    if (governor != nullptr) governor->ReleaseMemory(fs_bytes);
    if (anonymous) return true;
  }
  return false;
}

/// Shared implementation; `governor` == nullptr is the ungoverned path.
PartialResult<BinarySearchResult> RunBinarySearchImpl(
    const Table& table, const QuasiIdentifier& qid,
    const AnonymizationConfig& config, ExecutionGovernor* governor) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (qid.size() == 0) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }

  INCOGNITO_SPAN("binary_search.run");
  INCOGNITO_COUNT("binary_search.runs");
  Stopwatch timer;
  BinarySearchResult result;
  GeneralizationLattice lattice(qid.MaxLevels());
  result.stats.candidate_nodes = static_cast<int64_t>(lattice.NumNodes());

  // Finalizes stats and wraps a budget trip into a partial result carrying
  // the bracket proven so far.
  auto stop_early = [&](Status trip) -> PartialResult<BinarySearchResult> {
    result.stats.total_seconds = timer.ElapsedSeconds();
    if (governor != nullptr) governor->ExportTrips(&result.stats);
    if (IsResourceGovernance(trip.code())) {
      return PartialResult<BinarySearchResult>::Partial(std::move(trip),
                                                        std::move(result));
    }
    return trip;
  };

  // Binary search for the least height with a k-anonymous generalization.
  // Invariant: every height < low has no k-anonymous node; if found_any,
  // some node at height `high` (or below) is k-anonymous.
  int32_t low = 0;
  int32_t high = lattice.MaxHeight();
  Result<bool> top = AnyAnonymousAtHeight(table, qid, lattice, high, config,
                                          &result.stats, governor);
  if (!top.ok()) return stop_early(top.status());
  if (!top.value()) {
    // Even full generalization fails (table smaller than k modulo
    // suppression): no solution exists.
    result.found = false;
    result.stats.total_seconds = timer.ElapsedSeconds();
    if (governor != nullptr) governor->ExportTrips(&result.stats);
    return result;
  }
  result.bracket_high = high;
  while (low < high) {
    int32_t mid = low + (high - low) / 2;
    Result<bool> probe = AnyAnonymousAtHeight(table, qid, lattice, mid,
                                              config, &result.stats,
                                              governor);
    if (!probe.ok()) {
      result.bracket_low = low;
      return stop_early(probe.status());
    }
    if (probe.value()) {
      high = mid;
      result.bracket_high = high;
    } else {
      low = mid + 1;
    }
    result.bracket_low = low;
  }

  // Collect all k-anonymous generalizations at the minimal height.
  for (const LevelVector& levels : lattice.NodesAtHeight(low)) {
    if (governor != nullptr) {
      Status checkpoint = governor->Check();
      if (!checkpoint.ok()) {
        // The minimal height is proven but its node collection is not:
        // return the bracket, not a half-filled answer.
        result.all_at_minimal_height.clear();
        return stop_early(std::move(checkpoint));
      }
    }
    SubsetNode node = SubsetNode::Full(levels);
    ++result.stats.nodes_checked;
    ++result.stats.table_scans;
    FrequencySet fs = std::move(
        FrequencySet::ComputeBatch(table, qid, {node}, nullptr, governor)
            .front());
    int64_t fs_bytes = static_cast<int64_t>(fs.MemoryBytes());
    if (governor != nullptr) {
      Status charged = governor->ChargeMemory(fs_bytes);
      if (!charged.ok()) {
        result.all_at_minimal_height.clear();
        return stop_early(std::move(charged));
      }
    }
    result.stats.freq_groups_built += static_cast<int64_t>(fs.NumGroups());
    bool anonymous = fs.IsKAnonymous(config.k, config.max_suppressed);
    if (governor != nullptr) governor->ReleaseMemory(fs_bytes);
    if (anonymous) {
      result.all_at_minimal_height.push_back(node);
    }
  }
  result.found = true;
  result.node = result.all_at_minimal_height.front();
  result.stats.total_seconds = timer.ElapsedSeconds();
  if (governor != nullptr) governor->ExportTrips(&result.stats);
  return result;
}

}  // namespace

PartialResult<BinarySearchResult> RunSamaratiBinarySearch(
    const Table& table, const QuasiIdentifier& qid,
    const AnonymizationConfig& config, const RunContext& ctx) {
  return RunBinarySearchImpl(table, qid, config, ctx.governor);
}

}  // namespace incognito
