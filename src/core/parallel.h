#ifndef INCOGNITO_CORE_PARALLEL_H_
#define INCOGNITO_CORE_PARALLEL_H_

#include "core/incognito.h"
#include "robust/checkpoint.h"

namespace incognito {

/// The Incognito search behind RunIncognito (docs/PARALLELISM.md), at every
/// thread count. Each proper attribute subset's candidate-graph search is a
/// task in a subset DAG over a pool of `num_threads` workers: a subset
/// becomes runnable once all of its immediate sub-subsets have published
/// their survivor graphs (the Subset Property), so iteration i+1 work
/// starts while slow subsets of iteration i still run. Each task walks its
/// graph inline on its worker. The final full-QID graph depends on every
/// size-(n-1) subset, so it is walked last with each lattice level spread
/// across the whole pool. A 1-worker pool is the serial case.
///
/// Results are bit-identical at every thread count: anonymous_nodes,
/// per_iteration_survivors, and the nodes_checked / nodes_marked /
/// table_scans / rollups / freq_groups_built / candidate_nodes counts.
/// (governor_checks may differ: checkpoint cadence is per worker.)
///
/// Every worker charges and polls `governor` itself; a trip in any worker
/// latches it for all of them, the pool drains, and the run returns
/// PartialResult::Partial whose completed_iterations means "every subset
/// of this size finished". A null governor resolves once, at the top, to
/// a private unlimited one on the same path, and the trip counters are
/// exported only for a caller's governor.
///
/// The walk's criterion is k-anonymity with config's suppression budget.
/// With a non-null `key_qid` it is distinct (k, ℓ)-diversity instead
/// (RunLDiversityIncognito, core/ldiversity.h): `key_qid` holds qid's
/// attributes followed by the sensitive column at height 0, and every
/// frequency set the walk builds is for the candidate node with that
/// dimension appended at level 0, checked with
/// FrequencySet::TuplesViolatingDiversity(config.k, l). Candidate graphs
/// and the result stay over `qid`. The Cube variant and checkpointing are
/// k-anonymity only.
///
/// Callers validate the arguments first (RunIncognito does):
/// config.k >= 1, config.max_suppressed >= 0, and 1 <= qid.size() <=
/// kMaxQidAttributes.
PartialResult<IncognitoResult> RunSubsetDag(
    const Table& table, const QuasiIdentifier& qid,
    const AnonymizationConfig& config, const IncognitoOptions& options,
    ExecutionGovernor* governor, int num_threads,
    const CheckpointPolicy* checkpoint,
    const QuasiIdentifier* key_qid = nullptr, int64_t l = 1);

}  // namespace incognito

#endif  // INCOGNITO_CORE_PARALLEL_H_
