#ifndef INCOGNITO_CORE_CHECKPOINT_RESUME_H_
#define INCOGNITO_CORE_CHECKPOINT_RESUME_H_

#include <vector>

#include "common/status.h"
#include "core/checker.h"
#include "core/quasi_identifier.h"
#include "lattice/graph_tables.h"
#include "lattice/node.h"
#include "robust/checkpoint.h"

namespace incognito {

/// Resume machinery of the Incognito subset-DAG search (core/parallel.h;
/// robust/checkpoint.h holds the format, this header the search-side
/// reconstruction).
///
/// Soundness rests on two properties of the algorithm:
///   - Monotonicity: a finished subset's survivor set is final — later
///     work only reads it (via GenerateSubsetGraph), never revises it — so
///     skipping a checkpointed subset cannot change any downstream answer.
///   - Determinism: candidate graphs are pure functions of the QID and the
///     previous survivor sets, so they can be regenerated on resume (with
///     no stats counted) and the checkpointed survivors re-anchored into
///     them; the restored counter deltas then make the resumed run's
///     totals bit-identical to an uninterrupted one.

/// The bit-identity counters of a stats object, for snapshot diffing
/// around one subset's search.
CheckpointCounters CountersFrom(const AlgorithmStats& stats);

/// counters(after) - counters(before) for the checkpointed fields.
CheckpointCounters CounterDelta(const AlgorithmStats& before,
                                const AlgorithmStats& after);

/// Adds restored deltas back into a run's stats.
void AddCounters(const CheckpointCounters& delta, AlgorithmStats* stats);

/// The outcome of deciding whether to resume: either restore from the
/// returned snapshot or start fresh.
struct ResumeDecision {
  bool restore = false;
  CheckpointSnapshot snapshot;
};

/// Applies the policy's ResumeMode: loads and fingerprint-checks the
/// checkpoint file. kOff (or a disabled/null policy) is always fresh;
/// kAuto falls back to fresh on any load/validation failure; kRequire
/// propagates the failure (IOError for an unreadable file,
/// FailedPrecondition for corruption or a fingerprint mismatch).
Result<ResumeDecision> DecideResume(const CheckpointPolicy* policy,
                                    const CheckpointFingerprint& fingerprint);

/// Re-anchors one subset's checkpointed survivors into its regenerated
/// candidate graph: keep[id] = (node in survivors). Fails with
/// FailedPrecondition when a survivor is missing from the graph (a
/// checkpoint from a different dataset that happened to pass the
/// fingerprint cannot slip through).
Result<CandidateGraph> RebuildSurvivorGraph(
    const CandidateGraph& candidates,
    const std::vector<SubsetNode>& survivors);

}  // namespace incognito

#endif  // INCOGNITO_CORE_CHECKPOINT_RESUME_H_
