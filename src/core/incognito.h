#ifndef INCOGNITO_CORE_INCOGNITO_H_
#define INCOGNITO_CORE_INCOGNITO_H_

#include <vector>

#include "common/status.h"
#include "core/checker.h"
#include "core/quasi_identifier.h"
#include "core/run_context.h"
#include "lattice/node.h"
#include "relation/table.h"
#include "robust/partial_result.h"

namespace incognito {

/// The three Incognito variants evaluated in the paper.
enum class IncognitoVariant {
  /// Basic Incognito (paper Fig. 8): a-priori subset iteration with
  /// bottom-up rollup inside each candidate graph; each root's frequency
  /// set is computed with its own scan of T.
  kBasic,
  /// Super-roots Incognito (§3.3.1): roots of the same family share one
  /// scan via the frequency set of their greatest common specialization.
  kSuperRoots,
  /// Cube Incognito (§3.3.2): all zero-generalization frequency sets are
  /// pre-computed bottom-up (data-cube style); roots roll up from the cube
  /// instead of scanning T.
  kCube,
};

const char* IncognitoVariantName(IncognitoVariant variant);

/// Tuning and ablation switches.
struct IncognitoOptions {
  IncognitoVariant variant = IncognitoVariant::kBasic;

  /// When true (default), marking an anonymous node's generalizations
  /// propagates transitively (every implied generalization is marked); when
  /// false only direct generalizations are marked, exactly as written in
  /// Fig. 8. Both are sound; transitive marking skips more checks.
  bool mark_transitively = true;

  /// Ablation switch: when false, non-root nodes recompute their frequency
  /// sets from the table instead of rolling up from a specialization's
  /// frequency set (isolates the Rollup Property's contribution).
  bool use_rollup = true;

  /// Worker threads of the subset-DAG search (core/parallel.h). 1
  /// (default) is the serial case; every thread count gives bit-identical
  /// results.
  int num_threads = 1;

  /// When true (default), all scan-required nodes of a lattice level that
  /// share an attribute subset are fed from ONE pass over the table
  /// (FrequencySet::ComputeBatch; docs/PARALLELISM.md "Scan-sharing batch
  /// evaluation") instead of one scan each. Survivors and every
  /// deterministic counter except table_scans are bit-identical either
  /// way; table_scans counts one scan per (subset, level) batch.
  bool batch_scans = true;
};

/// The output of an Incognito run.
struct IncognitoResult {
  /// S_n: every full-quasi-identifier generalization with respect to which
  /// T is k-anonymous (the complete, sound result set — minimality
  /// selection is a separate step, see minimality.h). Nodes have
  /// dims == {0..n-1}; levels is the distance vector.
  std::vector<SubsetNode> anonymous_nodes;

  /// The surviving i-attribute subset generalizations per iteration
  /// (S_1..S_n), useful for diagnostics and tests; index 0 holds S_1.
  std::vector<std::vector<SubsetNode>> per_iteration_survivors;

  /// Iterations (attribute-subset sizes) fully processed. Equals
  /// qid.size() on a complete run; smaller when a governed run tripped a
  /// budget mid-search, in which case per_iteration_survivors holds
  /// exactly this many entries and anonymous_nodes is empty (no complete
  /// S_n was proven).
  int64_t completed_iterations = 0;

  AlgorithmStats stats;

  /// Fraction of the run's makespan each worker spent executing tasks,
  /// indexed by worker id (worker 0 is the calling thread). Derived from
  /// the scheduler's TaskTimeline (obs/timeline.h); empty when
  /// observability is compiled out.
  std::vector<double> worker_utilization;
};

/// The widest quasi-identifier RunIncognito accepts: the subset search
/// indexes attribute subsets by bitmask and keeps one task slot per subset.
inline constexpr size_t kMaxQidAttributes = 32;

/// The widest quasi-identifier a Cube run accepts: ZeroGenCube holds one
/// frequency set per attribute subset, and 2^24 of them already take
/// gigabytes before the first group.
inline constexpr size_t kMaxCubeQidAttributes = 24;

/// Runs Incognito: produces the set of ALL k-anonymous full-domain
/// generalizations of `table` with respect to `qid` (sound and complete,
/// paper §3.2), with the optional tuple-suppression threshold from
/// `config`.
///
/// `ctx` carries the execution parameters (docs/API.md):
///   - The search polls the governor at every lattice-node check and
///     charges frequency-set / cube / hash-tree construction against its
///     memory budget: ctx.governor, or a private unlimited one when it is
///     null, so a default RunContext's result is complete() and its trip
///     counters stay zero. When a budget trips mid-search the run
///     stops cleanly and returns PartialResult::Partial carrying
///     everything proven so far (completed iterations' survivor sets; see
///     IncognitoResult::completed_iterations) with status
///     kDeadlineExceeded, kResourceExhausted, or kCancelled. Construct a
///     fresh governor per call.
///   - The effective thread count (ctx.num_threads, or options.num_threads
///     when ctx leaves it 0) sizes the worker pool of the subset-DAG
///     search (core/parallel.h); every count returns the identical answer
///     set, survivor sets, and node-count statistics, with every worker
///     charging ctx.governor itself.
///   - A QID wider than kMaxQidAttributes, or a Cube run's QID wider than
///     kMaxCubeQidAttributes, is InvalidArgument, before any work.
PartialResult<IncognitoResult> RunIncognito(const Table& table,
                                            const QuasiIdentifier& qid,
                                            const AnonymizationConfig& config,
                                            const IncognitoOptions& options = {},
                                            const RunContext& ctx = {});

}  // namespace incognito

#endif  // INCOGNITO_CORE_INCOGNITO_H_
