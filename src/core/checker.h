#ifndef INCOGNITO_CORE_CHECKER_H_
#define INCOGNITO_CORE_CHECKER_H_

#include <cstdint>
#include <string>

#include "core/quasi_identifier.h"
#include "core/run_context.h"
#include "freq/frequency_set.h"
#include "lattice/node.h"
#include "relation/table.h"
#include "robust/governor.h"

namespace incognito {

/// Parameters common to every anonymization algorithm.
struct AnonymizationConfig {
  /// The k of k-anonymity: every value group must contain at least k
  /// tuples. Must be >= 1.
  int64_t k = 2;

  /// The paper's optional tuple-suppression threshold (§2.1): up to this
  /// many outlier tuples may be excluded from the released view, so a
  /// generalization is acceptable if at most this many tuples lie in
  /// groups smaller than k. Zero disables suppression.
  int64_t max_suppressed = 0;
};

/// Counters every search algorithm reports. These make the paper's
/// qualitative claims measurable: table_scans shows what rollup and
/// super-roots save, nodes_checked reproduces the §4.2.1 "nodes searched"
/// table, nodes_marked quantifies generalization-property pruning.
struct AlgorithmStats {
  int64_t nodes_checked = 0;      ///< frequency sets evaluated for k-anonymity
  int64_t nodes_marked = 0;       ///< checks avoided via the generalization property
  int64_t table_scans = 0;        ///< full scans of the microdata table
  int64_t rollups = 0;            ///< frequency sets produced by rollup
  int64_t freq_groups_built = 0;  ///< total groups across computed frequency sets
  int64_t candidate_nodes = 0;    ///< nodes in all candidate graphs / full lattice
  double cube_build_seconds = 0;  ///< Cube Incognito pre-computation time
  double total_seconds = 0;       ///< end-to-end wall clock

  // Resource-governance activity (zero on ungoverned runs; see
  // robust/governor.h). Trip counts explain *why* a governed run degraded.
  int64_t governor_checks = 0;  ///< cooperative checkpoints evaluated
  int64_t deadline_trips = 0;   ///< checkpoints that saw an expired deadline
  int64_t memory_trips = 0;     ///< memory-budget charges refused
  int64_t cancel_trips = 0;     ///< checkpoints that saw cancellation

  /// Worker count of an Incognito run's pool (core/parallel.h); 0 for
  /// algorithms without one. Merged with max, not sum — it describes the
  /// pool, not work.
  int64_t parallel_workers = 0;

  // Scheduler telemetry derived from an Incognito run's TaskTimeline
  // (obs/timeline.h); zero for algorithms without a pool.
  int64_t tasks_scheduled = 0;       ///< tasks the scheduler dispatched
  double critical_path_seconds = 0;  ///< longest dependency chain of tasks
  double scheduler_idle_seconds = 0; ///< worker-seconds spent waiting

  // Crash-safe checkpointing activity (robust/checkpoint.h; zero when the
  // run had no CheckpointPolicy). Not part of the bit-identity contract —
  // like the governor counters, they describe the run, not the answer.
  int64_t checkpoint_writes = 0;          ///< snapshots written successfully
  int64_t checkpoint_bytes = 0;           ///< bytes across written snapshots
  int64_t checkpoint_write_failures = 0;  ///< writes that failed (non-fatal)
  int64_t restored_iterations = 0;  ///< subset sizes fully restored on resume
  int64_t restored_subsets = 0;     ///< subset searches skipped on resume

  // Scan-sharing batch evaluation (FrequencySet::ComputeBatch;
  // docs/PARALLELISM.md). batched_scan_nodes counts nodes whose frequency
  // set came out of a shared scan — with batching on, table_scans counts
  // one scan per (subset, level) batch, so batched_scan_nodes /
  // table_scans is the amortization factor. Deterministic at any thread
  // count.
  int64_t batched_scan_nodes = 0;  ///< nodes fed from shared batch scans
  double batch_scan_seconds = 0;   ///< wall clock inside shared batch scans

  /// Merges accumulable costs from another stats object: every counter
  /// plus cube_build_seconds (a summable pre-computation cost). Only
  /// total_seconds is excluded — it is end-to-end wall clock, which does
  /// not add across merged runs.
  void MergeCounters(const AlgorithmStats& other);

  std::string ToString() const;
};

/// Directly checks whether `table` is k-anonymous with respect to the
/// generalization `node` by computing the frequency set with one scan —
/// the paper's SELECT COUNT(*) ... GROUP BY query. Convenience entry point
/// and the oracle the property tests compare the algorithms against.
/// When `stats` is non-null, the check's costs are accumulated into it.
/// `num_threads` > 1 fans the scan out across a worker pool
/// (FrequencySet::ComputeBatch) with a bit-identical verdict and stats.
bool IsKAnonymous(const Table& table, const QuasiIdentifier& qid,
                  const SubsetNode& node, const AnonymizationConfig& config,
                  AlgorithmStats* stats = nullptr, int num_threads = 1);

/// RunContext variant (docs/API.md): ctx.governor (when non-null) is
/// polled before the scan and charged the frequency set's heap footprint
/// (released after the check); kDeadlineExceeded / kResourceExhausted /
/// kCancelled replace the answer when a budget trips. An ungoverned
/// context never trips. ctx.num_threads > 1 runs the scan across a worker
/// pool with per-worker shard charges.
Result<bool> IsKAnonymous(const Table& table, const QuasiIdentifier& qid,
                          const SubsetNode& node,
                          const AnonymizationConfig& config,
                          const RunContext& ctx,
                          AlgorithmStats* stats = nullptr);

}  // namespace incognito

#endif  // INCOGNITO_CORE_CHECKER_H_
