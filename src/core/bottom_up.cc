#include "core/bottom_up.h"

#include <unordered_map>

#include "common/stopwatch.h"
#include "freq/frequency_set.h"
#include "lattice/lattice.h"
#include "obs/obs.h"
#include "robust/fault_injector.h"

namespace incognito {

PartialResult<BottomUpResult> RunBottomUpBfs(const Table& table,
                                             const QuasiIdentifier& qid,
                                             const AnonymizationConfig& config,
                                             const BottomUpOptions& options,
                                             const RunContext& ctx) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (qid.size() == 0) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }

  INCOGNITO_SPAN("bottom_up.run");
  INCOGNITO_COUNT("bottom_up.runs");
  ExecutionGovernor local;  // unlimited: accounting only
  ExecutionGovernor& governor = ctx.governor != nullptr ? *ctx.governor : local;
  Stopwatch timer;
  BottomUpResult result;
  GeneralizationLattice lattice(qid.MaxLevels());
  result.stats.candidate_nodes = static_cast<int64_t>(lattice.NumNodes());

  // Dense marking array over the whole lattice (mixed-radix indexing).
  std::vector<bool> marked;
  if (options.use_generalization_marking) {
    marked.assign(lattice.NumNodes(), false);
  }

  // Frequency sets of the previous height's nodes, for rollup.
  std::unordered_map<uint64_t, ChargedFrequencySet> prev_freq;

  // Stamps the run's time and, for a caller's governor, its trips; wraps a
  // budget trip into a partial result carrying the nodes confirmed so far.
  auto finalize = [&](Status status) -> PartialResult<BottomUpResult> {
    result.stats.total_seconds = timer.ElapsedSeconds();
    if (ctx.governor != nullptr) ctx.governor->ExportTrips(&result.stats);
    if (status.ok()) return std::move(result);
    if (IsResourceGovernance(status.code())) {
      return PartialResult<BottomUpResult>::Partial(std::move(status),
                                                    std::move(result));
    }
    return status;
  };

  for (int32_t h = 0; h <= lattice.MaxHeight(); ++h) {
    INCOGNITO_SPAN("bottom_up.height");
    INCOGNITO_COUNT("bottom_up.heights");
    std::unordered_map<uint64_t, ChargedFrequencySet> cur_freq;
    for (const LevelVector& levels : lattice.NodesAtHeight(h)) {
      uint64_t idx = lattice.Index(levels);
      Status checkpoint = governor.Check();
      if (!checkpoint.ok()) return finalize(std::move(checkpoint));

      if (options.use_generalization_marking && marked[idx]) {
        // Known k-anonymous via the generalization property; propagate the
        // mark to the direct generalizations and skip the check.
        ++result.stats.nodes_marked;
        result.anonymous_nodes.push_back(SubsetNode::Full(levels));
        for (const LevelVector& g : lattice.DirectGeneralizations(levels)) {
          marked[lattice.Index(g)] = true;
        }
        continue;
      }

      SubsetNode node = SubsetNode::Full(levels);
      ChargedFrequencySet set{FrequencySet(), MemoryCharge(governor)};
      bool rolled = false;
      if (options.use_rollup && h > 0) {
        for (const LevelVector& spec : lattice.DirectSpecializations(levels)) {
          auto it = prev_freq.find(lattice.Index(spec));
          if (it != prev_freq.end()) {
            // Fault site "bottom_up.rollup": an injected allocation failure
            // while aggregating the rollup unwinds like a refused charge.
            if (INCOGNITO_FAULT_FIRED("bottom_up.rollup")) {
              return finalize(
                  governor.LatchInjectedFailure("bottom_up.rollup"));
            }
            set.freq = it->second.freq.RollupTo(node, qid);
            ++result.stats.rollups;
            rolled = true;
            break;
          }
        }
      }
      if (!rolled) {
        set.freq = std::move(
            FrequencySet::ComputeBatch(table, qid, {node}, nullptr, &governor)
                .front());
        ++result.stats.table_scans;
      }
      Status charged =
          set.charge.Add(static_cast<int64_t>(set.freq.MemoryBytes()));
      if (!charged.ok()) return finalize(std::move(charged));
      ++result.stats.nodes_checked;
      result.stats.freq_groups_built +=
          static_cast<int64_t>(set.freq.NumGroups());
      INCOGNITO_COUNT("bottom_up.kchecks");

      bool anonymous;
      {
        INCOGNITO_PHASE_TIMER("phase.kcheck_seconds");
        anonymous = set.freq.IsKAnonymous(config.k, config.max_suppressed);
      }
      if (anonymous) {
        result.anonymous_nodes.push_back(node);
        if (options.use_generalization_marking) {
          for (const LevelVector& g : lattice.DirectGeneralizations(levels)) {
            marked[lattice.Index(g)] = true;
          }
        }
      }
      // Without rollup the set and its charge go at the end of the node.
      if (options.use_rollup) cur_freq.emplace(idx, std::move(set));
    }
    prev_freq = std::move(cur_freq);  // releases the older height's sets
    result.completed_heights = static_cast<int64_t>(h) + 1;
  }
  return finalize(Status::OK());
}

}  // namespace incognito
