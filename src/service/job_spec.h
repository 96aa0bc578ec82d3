#ifndef INCOGNITO_SERVICE_JOB_SPEC_H_
#define INCOGNITO_SERVICE_JOB_SPEC_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/checker.h"
#include "core/exec_profile.h"
#include "core/incognito.h"
#include "obs/json_util.h"
#include "robust/governor.h"

namespace incognito {

/// The anonymization model a job runs. The four models cover the paper's
/// taxonomy corners the service exposes: full-domain Incognito search,
/// its ℓ-diversity extension, the optimal single-dimension cut search, and
/// the multi-dimensional Mondrian partitioner.
enum class JobModel {
  kKAnonymity,  ///< full-domain Incognito enumeration (core/incognito.h)
  kLDiversity,  ///< ℓ-diverse Incognito (core/ldiversity.h)
  kKOptimize,   ///< optimal 1-D cut search (models/koptimize.h)
  kMondrian,    ///< greedy multi-dimensional splits (models/mondrian.h)
};

/// Canonical wire spelling ("k-anonymity", "l-diversity", "k-optimize",
/// "mondrian").
const char* JobModelName(JobModel model);

/// Parses a wire spelling; false on anything else.
bool ParseJobModel(const std::string& text, JobModel* model);

/// Parses an Incognito variant's wire spelling ("basic", "superroots",
/// "cube"), shared by the JobSpec "variant" key and both tools' --variant
/// flag; false on anything else.
bool ParseVariantWireName(const std::string& text, IncognitoVariant* out);

/// One anonymization job: WHAT to run (dataset reference, model, privacy
/// parameters) plus HOW to run it (the ExecProfile: deadline, memory
/// lease, thread share, checkpoint policy). This is
/// the service's public job description — the same JobSpec produces
/// bit-identical results whether executed through the daemon, the socket
/// client's run-direct mode, or a direct ExecuteJob call.
struct JobSpec {
  /// Tenant the job is accounted to (admission quotas and weighted-fair
  /// scheduling key on it; see service/service.h).
  std::string tenant = "default";

  /// Dataset reference: ".inct" binary table or CSV path, resolved by
  /// service/problem_loader.h.
  std::string input;
  /// Quasi-identifier attribute names, in lattice order.
  std::vector<std::string> qid;
  /// Per-column hierarchy specs (problem_loader.h grammar).
  std::map<std::string, std::string> hierarchies;

  JobModel model = JobModel::kKAnonymity;
  int64_t k = 2;
  /// ℓ for kLDiversity (ignored by the other models).
  int64_t l = 2;
  /// Sensitive attribute for kLDiversity.
  std::string sensitive_attribute;
  int64_t max_suppressed = 0;
  /// Incognito variant for kKAnonymity.
  IncognitoVariant variant = IncognitoVariant::kBasic;

  /// Execution profile: budgets, threads (0-kMaxThreads; 0 keeps the
  /// default), checkpoint policy. The daemon points exec.cancel at the
  /// job's own token before running so every job is cancellable.
  ExecProfile exec;

  /// When false, a budget trip is reported as a failure (its governance
  /// status and exit code); when true, the sound partial release is
  /// returned instead, flagged partial.
  bool partial_ok = false;
};

/// Serializes a spec to one JSON object (the "submit" op's "spec" field).
std::string JobSpecToJson(const JobSpec& spec);

/// Parses the wire form produced by JobSpecToJson (unknown keys are
/// rejected so client/server drift fails loudly).
Result<JobSpec> JobSpecFromJson(const obs::JsonValue& value);

/// What a job produced. `status`/`partial` carry the outcome contract of
/// PartialResult: complete runs have an OK status; partial runs carry the
/// governance status that stopped them plus a sound partial release; hard
/// errors carry the error and no release.
struct JobResult {
  Status status = Status::OK();
  bool partial = false;

  /// Sorted ToString forms of the proven nodes (anonymous_nodes or
  /// diverse_nodes; empty for the partitioning models).
  std::vector<std::string> nodes;
  int64_t completed_iterations = 0;

  /// Released view identity: CRC-32 (IEEE 802.3) over the view's CSV
  /// serialization plus its row count. Zero rows and CRC 0 when the model
  /// released nothing (hard error, or a partial with no proven node).
  uint32_t view_crc32 = 0;
  int64_t view_rows = 0;
  int64_t suppressed_tuples = 0;

  /// Model-specific outputs: k-Optimize's minimized cost, Mondrian's
  /// partition count (zero for the other models).
  double cost = 0;
  int64_t num_partitions = 0;

  AlgorithmStats stats;
};

/// Canonical JSON for a result. Deliberately excludes every timing and
/// telemetry field (total_seconds, governor activity, scheduler counters)
/// so daemon-vs-direct runs of the same JobSpec serialize bit-for-bit
/// identically; keys are emitted in fixed order.
std::string JobResultToJson(const JobResult& result);

/// Executes one job start-to-finish: resolves the dataset reference,
/// assembles the RunContext from spec.exec against `governor` (the
/// caller's stack or record slot — armed only when the profile is
/// governed), dispatches on spec.model, and folds the model's
/// PartialResult into a JobResult. Shared by the daemon's workers
/// (service/service.cc) and the client's run-direct mode — the
/// differential tests pin the two paths bit-identical.
JobResult ExecuteJob(const JobSpec& spec, ExecutionGovernor* governor);

}  // namespace incognito

#endif  // INCOGNITO_SERVICE_JOB_SPEC_H_
