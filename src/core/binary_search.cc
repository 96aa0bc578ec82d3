#include "core/binary_search.h"

#include "common/stopwatch.h"
#include "freq/frequency_set.h"
#include "lattice/lattice.h"
#include "obs/obs.h"

namespace incognito {

namespace {

/// Checks the generalizations at one height; returns true at the first
/// k-anonymous node found (short-circuit, as one witness suffices for the
/// binary search step). Polls the governor per node and charges each
/// probe's frequency set; a trip propagates as the status.
Result<bool> AnyAnonymousAtHeight(const Table& table,
                                  const QuasiIdentifier& qid,
                                  const GeneralizationLattice& lattice,
                                  int32_t h,
                                  const AnonymizationConfig& config,
                                  AlgorithmStats* stats,
                                  ExecutionGovernor& governor) {
  INCOGNITO_SPAN("binary_search.height_probe");
  INCOGNITO_COUNT("binary_search.height_probes");
  for (const LevelVector& levels : lattice.NodesAtHeight(h)) {
    INCOGNITO_RETURN_IF_ERROR(governor.Check());
    SubsetNode node = SubsetNode::Full(levels);
    ++stats->nodes_checked;
    ++stats->table_scans;
    FrequencySet fs = std::move(
        FrequencySet::ComputeBatch(table, qid, {node}, nullptr, &governor)
            .front());
    MemoryCharge charge(governor);
    INCOGNITO_RETURN_IF_ERROR(
        charge.Add(static_cast<int64_t>(fs.MemoryBytes())));
    stats->freq_groups_built += static_cast<int64_t>(fs.NumGroups());
    if (fs.IsKAnonymous(config.k, config.max_suppressed)) return true;
  }
  return false;
}

}  // namespace

PartialResult<BinarySearchResult> RunSamaratiBinarySearch(
    const Table& table, const QuasiIdentifier& qid,
    const AnonymizationConfig& config, const RunContext& ctx) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (qid.size() == 0) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }

  INCOGNITO_SPAN("binary_search.run");
  INCOGNITO_COUNT("binary_search.runs");
  ExecutionGovernor local;  // unlimited: accounting only
  ExecutionGovernor& governor = ctx.governor != nullptr ? *ctx.governor : local;
  Stopwatch timer;
  BinarySearchResult result;
  GeneralizationLattice lattice(qid.MaxLevels());
  result.stats.candidate_nodes = static_cast<int64_t>(lattice.NumNodes());

  // Stamps the run's time and, for a caller's governor, its trips; wraps a
  // budget trip into a partial result carrying the bracket proven so far.
  auto finalize = [&](Status status) -> PartialResult<BinarySearchResult> {
    result.stats.total_seconds = timer.ElapsedSeconds();
    if (ctx.governor != nullptr) ctx.governor->ExportTrips(&result.stats);
    if (status.ok()) return std::move(result);
    if (IsResourceGovernance(status.code())) {
      return PartialResult<BinarySearchResult>::Partial(std::move(status),
                                                        std::move(result));
    }
    return status;
  };

  // Binary search for the least height with a k-anonymous generalization.
  // Invariant: every height < low has no k-anonymous node; if found_any,
  // some node at height `high` (or below) is k-anonymous.
  int32_t low = 0;
  int32_t high = lattice.MaxHeight();
  Result<bool> top = AnyAnonymousAtHeight(table, qid, lattice, high, config,
                                          &result.stats, governor);
  if (!top.ok()) return finalize(top.status());
  if (!top.value()) {
    // Even full generalization fails (table smaller than k modulo
    // suppression): no solution exists.
    result.found = false;
    return finalize(Status::OK());
  }
  result.bracket_high = high;
  while (low < high) {
    int32_t mid = low + (high - low) / 2;
    Result<bool> probe = AnyAnonymousAtHeight(table, qid, lattice, mid,
                                              config, &result.stats,
                                              governor);
    if (!probe.ok()) {
      result.bracket_low = low;
      return finalize(probe.status());
    }
    if (probe.value()) {
      high = mid;
      result.bracket_high = high;
    } else {
      low = mid + 1;
    }
    result.bracket_low = low;
  }

  // Collect all k-anonymous generalizations at the minimal height. A trip
  // here proves the minimal height but not its node collection: return the
  // bracket, not a half-filled answer.
  for (const LevelVector& levels : lattice.NodesAtHeight(low)) {
    Status checkpoint = governor.Check();
    if (!checkpoint.ok()) {
      result.all_at_minimal_height.clear();
      return finalize(std::move(checkpoint));
    }
    SubsetNode node = SubsetNode::Full(levels);
    ++result.stats.nodes_checked;
    ++result.stats.table_scans;
    FrequencySet fs = std::move(
        FrequencySet::ComputeBatch(table, qid, {node}, nullptr, &governor)
            .front());
    MemoryCharge charge(governor);
    Status charged = charge.Add(static_cast<int64_t>(fs.MemoryBytes()));
    if (!charged.ok()) {
      result.all_at_minimal_height.clear();
      return finalize(std::move(charged));
    }
    result.stats.freq_groups_built += static_cast<int64_t>(fs.NumGroups());
    if (fs.IsKAnonymous(config.k, config.max_suppressed)) {
      result.all_at_minimal_height.push_back(node);
    }
  }
  result.found = true;
  result.node = result.all_at_minimal_height.front();
  return finalize(Status::OK());
}

}  // namespace incognito
