#include "core/bottom_up.h"

#include <unordered_map>

#include "common/stopwatch.h"
#include "freq/frequency_set.h"
#include "lattice/lattice.h"
#include "obs/obs.h"
#include "robust/fault_injector.h"

namespace incognito {

namespace {

/// Shared implementation; `governor` == nullptr is the ungoverned path.
PartialResult<BottomUpResult> RunBottomUpImpl(
    const Table& table, const QuasiIdentifier& qid,
    const AnonymizationConfig& config, const BottomUpOptions& options,
    ExecutionGovernor* governor) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (qid.size() == 0) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }

  INCOGNITO_SPAN("bottom_up.run");
  INCOGNITO_COUNT("bottom_up.runs");
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
  std::unordered_map<uint64_t, FrequencySet> prev_freq;

  // Returns all bytes still charged for retained frequency sets.
  auto release_retained = [&](std::unordered_map<uint64_t, FrequencySet>& m) {
    if (governor == nullptr) return;
    for (const auto& [idx, fs] : m) {
      (void)idx;
      governor->ReleaseMemory(static_cast<int64_t>(fs.MemoryBytes()));
    }
  };

  // Finalizes stats and wraps a budget trip into a partial result carrying
  // the nodes confirmed so far.
  auto stop_early = [&](Status trip) -> PartialResult<BottomUpResult> {
    result.stats.total_seconds = timer.ElapsedSeconds();
    if (governor != nullptr) governor->ExportTrips(&result.stats);
    if (IsResourceGovernance(trip.code())) {
      return PartialResult<BottomUpResult>::Partial(std::move(trip),
                                                    std::move(result));
    }
    return trip;
  };

  for (int32_t h = 0; h <= lattice.MaxHeight(); ++h) {
    INCOGNITO_SPAN("bottom_up.height");
    INCOGNITO_COUNT("bottom_up.heights");
    std::unordered_map<uint64_t, FrequencySet> cur_freq;
    for (const LevelVector& levels : lattice.NodesAtHeight(h)) {
      uint64_t idx = lattice.Index(levels);
      if (governor != nullptr) {
        Status checkpoint = governor->Check();
        if (!checkpoint.ok()) {
          release_retained(prev_freq);
          release_retained(cur_freq);
          return stop_early(std::move(checkpoint));
        }
      }

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
      FrequencySet freq;
      bool rolled = false;
      if (options.use_rollup && h > 0) {
        for (const LevelVector& spec : lattice.DirectSpecializations(levels)) {
          auto it = prev_freq.find(lattice.Index(spec));
          if (it != prev_freq.end()) {
            // Fault site "bottom_up.rollup": an injected allocation failure
            // while aggregating the rollup unwinds like a refused charge.
            if (governor != nullptr &&
                INCOGNITO_FAULT_FIRED("bottom_up.rollup")) {
              Status injected =
                  governor->LatchInjectedFailure("bottom_up.rollup");
              release_retained(prev_freq);
              release_retained(cur_freq);
              return stop_early(std::move(injected));
            }
            freq = it->second.RollupTo(node, qid);
            ++result.stats.rollups;
            rolled = true;
            break;
          }
        }
      }
      if (!rolled) {
        freq = std::move(
            FrequencySet::ComputeBatch(table, qid, {node}, nullptr, governor)
                .front());
        ++result.stats.table_scans;
      }
      int64_t freq_bytes = static_cast<int64_t>(freq.MemoryBytes());
      if (governor != nullptr) {
        Status charged = governor->ChargeMemory(freq_bytes);
        if (!charged.ok()) {
          release_retained(prev_freq);
          release_retained(cur_freq);
          return stop_early(std::move(charged));
        }
      }
      ++result.stats.nodes_checked;
      result.stats.freq_groups_built += static_cast<int64_t>(freq.NumGroups());
      INCOGNITO_COUNT("bottom_up.kchecks");

      bool anonymous;
      {
        INCOGNITO_PHASE_TIMER("phase.kcheck_seconds");
        anonymous = freq.IsKAnonymous(config.k, config.max_suppressed);
      }
      if (anonymous) {
        result.anonymous_nodes.push_back(node);
        if (options.use_generalization_marking) {
          for (const LevelVector& g : lattice.DirectGeneralizations(levels)) {
            marked[lattice.Index(g)] = true;
          }
        }
      }
      if (options.use_rollup) {
        cur_freq.emplace(idx, std::move(freq));  // charge stays retained
      } else if (governor != nullptr) {
        governor->ReleaseMemory(freq_bytes);
      }
    }
    release_retained(prev_freq);
    prev_freq = std::move(cur_freq);
    result.completed_heights = static_cast<int64_t>(h) + 1;
  }
  release_retained(prev_freq);

  result.stats.total_seconds = timer.ElapsedSeconds();
  if (governor != nullptr) governor->ExportTrips(&result.stats);
  return result;
}

}  // namespace

PartialResult<BottomUpResult> RunBottomUpBfs(const Table& table,
                                             const QuasiIdentifier& qid,
                                             const AnonymizationConfig& config,
                                             const BottomUpOptions& options,
                                             const RunContext& ctx) {
  return RunBottomUpImpl(table, qid, config, options, ctx.governor);
}

}  // namespace incognito
