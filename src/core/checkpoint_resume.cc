#include "core/checkpoint_resume.h"

#include <set>
#include <utility>

namespace incognito {

CheckpointCounters CountersFrom(const AlgorithmStats& stats) {
  CheckpointCounters c;
  c.nodes_checked = stats.nodes_checked;
  c.nodes_marked = stats.nodes_marked;
  c.table_scans = stats.table_scans;
  c.rollups = stats.rollups;
  c.freq_groups_built = stats.freq_groups_built;
  c.candidate_nodes = stats.candidate_nodes;
  return c;
}

CheckpointCounters CounterDelta(const AlgorithmStats& before,
                                const AlgorithmStats& after) {
  CheckpointCounters delta;
  delta.nodes_checked = after.nodes_checked - before.nodes_checked;
  delta.nodes_marked = after.nodes_marked - before.nodes_marked;
  delta.table_scans = after.table_scans - before.table_scans;
  delta.rollups = after.rollups - before.rollups;
  delta.freq_groups_built =
      after.freq_groups_built - before.freq_groups_built;
  delta.candidate_nodes = after.candidate_nodes - before.candidate_nodes;
  return delta;
}

void AddCounters(const CheckpointCounters& delta, AlgorithmStats* stats) {
  stats->nodes_checked += delta.nodes_checked;
  stats->nodes_marked += delta.nodes_marked;
  stats->table_scans += delta.table_scans;
  stats->rollups += delta.rollups;
  stats->freq_groups_built += delta.freq_groups_built;
  stats->candidate_nodes += delta.candidate_nodes;
}

Result<ResumeDecision> DecideResume(const CheckpointPolicy* policy,
                                    const CheckpointFingerprint& fingerprint) {
  ResumeDecision decision;
  if (policy == nullptr || !policy->enabled() ||
      policy->resume == ResumeMode::kOff) {
    return decision;
  }
  Result<CheckpointSnapshot> snapshot = LoadCheckpoint(policy->path);
  if (!snapshot.ok()) {
    if (policy->resume == ResumeMode::kRequire) return snapshot.status();
    return decision;  // kAuto: fresh run
  }
  if (snapshot->fingerprint != fingerprint) {
    if (policy->resume == ResumeMode::kRequire) {
      return Status::FailedPrecondition(
          "checkpoint '" + policy->path +
          "' was written by a different run configuration (k, dataset "
          "shape, hierarchy heights, or variant differ)");
    }
    return decision;
  }
  decision.restore = true;
  decision.snapshot = std::move(snapshot).value();
  return decision;
}

Result<CandidateGraph> RebuildSurvivorGraph(
    const CandidateGraph& candidates,
    const std::vector<SubsetNode>& survivors) {
  std::set<SubsetNode> want(survivors.begin(), survivors.end());
  std::vector<bool> keep(candidates.num_nodes(), false);
  size_t matched = 0;
  for (size_t id = 0; id < candidates.num_nodes(); ++id) {
    if (want.count(candidates.node(static_cast<int64_t>(id)).ToSubsetNode())) {
      keep[id] = true;
      ++matched;
    }
  }
  if (matched != want.size()) {
    return Status::FailedPrecondition(
        "checkpoint survivors do not exist in the regenerated candidate "
        "graph (checkpoint is from a different dataset or hierarchy)");
  }
  return candidates.InducedSubgraph(keep);
}

}  // namespace incognito
