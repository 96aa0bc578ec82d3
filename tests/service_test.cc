// Tests for the multi-tenant anonymization service (src/service/): the
// shared status/exit-code table, JobSpec wire round-trips, the
// daemon-vs-direct bit-identity contract for every job model, admission
// control (queue depth, tenant quota, memory lease pool), weighted-fair
// scheduling under a tenant flood, cancellation and drain lifecycle, and
// the newline-delimited-JSON socket protocol end to end (including a
// mid-job governor trip surfacing as a sound partial over the wire, and
// the request-line size cap).
//
// Runs under TSan in CI: every cross-thread interaction goes through the
// core's lock, the job governor's atomics, or the socket.

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/incognito.h"
#include "core/ldiversity.h"
#include "data/adults.h"
#include "gtest/gtest.h"
#include "hierarchy/csv_hierarchy.h"
#include "models/koptimize.h"
#include "models/mondrian.h"
#include "obs/json_util.h"
#include "relation/csv.h"
#include "service/job_spec.h"
#include "service/problem_loader.h"
#include "service/server.h"
#include "service/service.h"
#include "test_util.h"

namespace incognito {
namespace {

std::string DemoCsv() {
  return std::string(INCOGNITO_TEST_DATA_DIR) + "/cli_demo.csv";
}

/// The demo problem every test reuses: 6 patients, QID of 3 attributes,
/// Disease as the sensitive column (tests/data/cli_demo.csv).
JobSpec DemoSpec(JobModel model) {
  JobSpec spec;
  spec.input = DemoCsv();
  spec.qid = {"Birthdate", "Sex", "Zipcode"};
  spec.hierarchies = {{"Birthdate", "suppress"},
                      {"Sex", "suppress"},
                      {"Zipcode", "digits:5:2"}};
  spec.model = model;
  spec.k = 2;
  if (model == JobModel::kLDiversity) {
    spec.l = 2;
    spec.sensitive_attribute = "Disease";
  }
  return spec;
}

// ---------------------------------------------------------------------------
// The shared status table (src/common/status.cc) — single source of truth
// for wire names and the CLI/daemon exit-code contract.
// ---------------------------------------------------------------------------

TEST(StatusTableTest, NameRoundTripCoversEveryCode) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kInternal,
        StatusCode::kIOError, StatusCode::kNotSupported,
        StatusCode::kDeadlineExceeded, StatusCode::kResourceExhausted,
        StatusCode::kCancelled}) {
    StatusCode parsed;
    ASSERT_TRUE(StatusCodeFromName(StatusCodeName(code), &parsed))
        << StatusCodeName(code);
    EXPECT_EQ(parsed, code);
  }
  StatusCode parsed;
  EXPECT_FALSE(StatusCodeFromName("NoSuchCode", &parsed));
}

TEST(StatusTableTest, ExitCodesFollowTheDocumentedContract) {
  EXPECT_EQ(ExitCodeForStatus(StatusCode::kOk), 0);
  EXPECT_EQ(ExitCodeForStatus(StatusCode::kInternal), 1);
  EXPECT_EQ(ExitCodeForStatus(StatusCode::kInvalidArgument), 3);
  EXPECT_EQ(ExitCodeForStatus(StatusCode::kNotFound), 3);
  EXPECT_EQ(ExitCodeForStatus(StatusCode::kFailedPrecondition), 3);
  EXPECT_EQ(ExitCodeForStatus(StatusCode::kIOError), 4);
  // The governance class — exactly the codes IsResourceGovernance accepts
  // as a sound partial — maps to the budget exit code.
  for (StatusCode code :
       {StatusCode::kDeadlineExceeded, StatusCode::kResourceExhausted,
        StatusCode::kCancelled}) {
    EXPECT_TRUE(IsResourceGovernance(code));
    EXPECT_EQ(ExitCodeForStatus(code), 5);
  }
}

// ---------------------------------------------------------------------------
// JobSpec wire round-trip.
// ---------------------------------------------------------------------------

TEST(JobSpecJsonTest, RoundTripPreservesEveryField) {
  JobSpec spec = DemoSpec(JobModel::kLDiversity);
  spec.tenant = "acme";
  spec.max_suppressed = 1;
  spec.variant = IncognitoVariant::kSuperRoots;
  spec.exec.deadline_ms = 1500;
  spec.exec.memory_budget_bytes = 4 << 20;
  spec.exec.num_threads = 2;
  spec.exec.checkpoint.path = "/tmp/ck";
  spec.exec.checkpoint.interval_ms = 25;
  spec.exec.checkpoint.resume = ResumeMode::kAuto;
  spec.partial_ok = true;

  obs::JsonValue parsed_json;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(JobSpecToJson(spec), &parsed_json, &error))
      << error;
  Result<JobSpec> round = JobSpecFromJson(parsed_json);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->tenant, "acme");
  EXPECT_EQ(round->input, spec.input);
  EXPECT_EQ(round->qid, spec.qid);
  EXPECT_EQ(round->hierarchies, spec.hierarchies);
  EXPECT_EQ(round->model, JobModel::kLDiversity);
  EXPECT_EQ(round->k, 2);
  EXPECT_EQ(round->l, 2);
  EXPECT_EQ(round->sensitive_attribute, "Disease");
  EXPECT_EQ(round->max_suppressed, 1);
  EXPECT_EQ(round->variant, IncognitoVariant::kSuperRoots);
  EXPECT_EQ(round->exec.deadline_ms, 1500);
  EXPECT_EQ(round->exec.memory_budget_bytes, 4 << 20);
  EXPECT_EQ(round->exec.num_threads, 2);
  EXPECT_EQ(round->exec.checkpoint.path, "/tmp/ck");
  EXPECT_EQ(round->exec.checkpoint.interval_ms, 25);
  EXPECT_EQ(round->exec.checkpoint.resume, ResumeMode::kAuto);
  EXPECT_TRUE(round->partial_ok);
  // The round-tripped spec re-serializes to the identical wire form.
  EXPECT_EQ(JobSpecToJson(round.value()), JobSpecToJson(spec));
}

TEST(JobSpecJsonTest, UnknownKeysAreRejected) {
  obs::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(
      "{\"input\":\"x.csv\",\"qid\":[\"A\"],\"frobnicate\":1}", &parsed,
      &error));
  Result<JobSpec> spec = JobSpecFromJson(parsed);
  EXPECT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
}

TEST(JobSpecJsonTest, RemovedKeysAreUnknown) {
  // Both keys named options the daemon no longer has.
  for (const std::string key_value :
       {"\"schedule\":\"barrier\"", "\"substrate\":\"hash\""}) {
    obs::JsonValue parsed;
    std::string error;
    ASSERT_TRUE(obs::ParseJson(
        "{\"input\":\"x.csv\",\"qid\":[\"A\"]," + key_value + "}", &parsed,
        &error));
    Result<JobSpec> spec = JobSpecFromJson(parsed);
    ASSERT_FALSE(spec.ok()) << key_value;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << key_value;
    EXPECT_NE(spec.status().message().find(
                  key_value.substr(0, key_value.find(':'))),
              std::string::npos)
        << key_value;
  }
}

TEST(JobSpecJsonTest, ThreadsOutsideTheCliRangeAreRejected) {
  // One client must not size a daemon job's worker pool without bound:
  // 0 keeps the default and 1-256 is the CLI --threads range.
  auto parse = [](const std::string& threads) {
    obs::JsonValue parsed;
    std::string error;
    EXPECT_TRUE(obs::ParseJson(
        "{\"input\":\"x.csv\",\"qid\":[\"A\"],\"threads\":" + threads + "}",
        &parsed, &error))
        << error;
    return JobSpecFromJson(parsed);
  };
  for (const char* bad : {"257", "-1", "8589934592"}) {
    Result<JobSpec> spec = parse(bad);
    ASSERT_FALSE(spec.ok()) << bad;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  for (int good : {0, 1, 256}) {
    Result<JobSpec> spec = parse(std::to_string(good));
    ASSERT_TRUE(spec.ok()) << good << ": " << spec.status().ToString();
    EXPECT_EQ(spec->exec.num_threads, good);
  }
}

// ---------------------------------------------------------------------------
// Differential: the daemon pipeline must be bit-identical to direct Run*
// calls for every model. ExecuteJob IS the shared executor, so the test
// pins (a) ExecuteJob against the raw Run* entry points and (b) the
// ServiceCore worker path against ExecuteJob's canonical JSON.
// ---------------------------------------------------------------------------

class ServiceDifferentialTest : public ::testing::Test {
 protected:
  static JobResult Direct(const JobSpec& spec) {
    ExecutionGovernor governor;
    return ExecuteJob(spec, &governor);
  }
};

TEST_F(ServiceDifferentialTest, KAnonymityMatchesRunIncognito) {
  JobSpec spec = DemoSpec(JobModel::kKAnonymity);
  JobResult job = Direct(spec);
  ASSERT_TRUE(job.status.ok()) << job.status.ToString();

  Result<LoadedProblem> problem =
      LoadProblem(spec.input, spec.qid, spec.hierarchies);
  ASSERT_TRUE(problem.ok());
  AnonymizationConfig config;
  config.k = 2;
  PartialResult<IncognitoResult> direct =
      RunIncognito(problem->table, problem->qid, config);
  ASSERT_TRUE(direct.complete());
  // The seeded demo problem has the documented 5 2-anonymous solutions.
  EXPECT_EQ(direct->anonymous_nodes.size(), 5u);
  EXPECT_EQ(job.nodes.size(), direct->anonymous_nodes.size());
  for (const SubsetNode& node : direct->anonymous_nodes) {
    std::string name = node.ToString(&problem->qid);
    EXPECT_NE(std::find(job.nodes.begin(), job.nodes.end(), name),
              job.nodes.end())
        << name;
  }
  EXPECT_EQ(job.stats.nodes_checked, direct->stats.nodes_checked);
  EXPECT_EQ(job.stats.table_scans, direct->stats.table_scans);
  EXPECT_GT(job.view_rows, 0);
  EXPECT_NE(job.view_crc32, 0u);
}

TEST_F(ServiceDifferentialTest, EveryModelIsBitIdenticalThroughTheDaemon) {
  ServiceConfig config;
  config.num_workers = 1;
  ServiceCore core(config);
  for (JobModel model :
       {JobModel::kKAnonymity, JobModel::kLDiversity, JobModel::kKOptimize,
        JobModel::kMondrian}) {
    JobSpec spec = DemoSpec(model);
    JobResult direct = Direct(spec);
    ASSERT_TRUE(direct.status.ok())
        << JobModelName(model) << ": " << direct.status.ToString();
    Result<JobId> id = core.Submit(spec);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    Result<JobResult> daemon = core.Wait(id.value());
    ASSERT_TRUE(daemon.ok());
    EXPECT_EQ(JobResultToJson(daemon.value()), JobResultToJson(direct))
        << JobModelName(model);
  }
}

TEST_F(ServiceDifferentialTest, ModelsProduceTheirDocumentedShapes) {
  JobResult ldiv = Direct(DemoSpec(JobModel::kLDiversity));
  ASSERT_TRUE(ldiv.status.ok()) << ldiv.status.ToString();
  EXPECT_FALSE(ldiv.nodes.empty());

  JobResult kopt = Direct(DemoSpec(JobModel::kKOptimize));
  ASSERT_TRUE(kopt.status.ok()) << kopt.status.ToString();
  EXPECT_TRUE(kopt.nodes.empty());  // cut search, not a lattice enumeration
  EXPECT_GT(kopt.cost, 0);
  EXPECT_GT(kopt.view_rows, 0);

  JobResult mondrian = Direct(DemoSpec(JobModel::kMondrian));
  ASSERT_TRUE(mondrian.status.ok()) << mondrian.status.ToString();
  EXPECT_GE(mondrian.num_partitions, 1);
  EXPECT_GT(mondrian.view_rows, 0);
}

// ---------------------------------------------------------------------------
// Released bytes: each daemon model's view_rows, view_crc32 and
// suppressed_tuples, pinned. The values were read from the row-by-row
// view builders and the string-building FillView; every released CSV must
// stay byte-identical.
// ---------------------------------------------------------------------------

struct ViewPin {
  JobModel model;
  int64_t view_rows;
  uint32_t view_crc32;
  int64_t suppressed_tuples;
};

/// Runs `base` as each pinned model (ℓ-diversity with ℓ = 2 over
/// `sensitive`) and checks the released view against its pin.
void ExpectPinnedViews(JobSpec base, const std::string& sensitive,
                       const std::vector<ViewPin>& pins) {
  for (const ViewPin& pin : pins) {
    JobSpec spec = base;
    spec.model = pin.model;
    if (pin.model == JobModel::kLDiversity) {
      spec.l = 2;
      spec.sensitive_attribute = sensitive;
    }
    ExecutionGovernor governor;
    JobResult result = ExecuteJob(spec, &governor);
    ASSERT_TRUE(result.status.ok())
        << JobModelName(pin.model) << ": " << result.status.ToString();
    EXPECT_EQ(result.view_rows, pin.view_rows) << JobModelName(pin.model);
    EXPECT_EQ(result.view_crc32, pin.view_crc32) << JobModelName(pin.model);
    EXPECT_EQ(result.suppressed_tuples, pin.suppressed_tuples)
        << JobModelName(pin.model);
  }
}

TEST(ReleasedViewPinTest, DemoSpec) {
  ExpectPinnedViews(DemoSpec(JobModel::kKAnonymity), "Disease",
                    {{JobModel::kKAnonymity, 6, 2721281571u, 0},
                     {JobModel::kLDiversity, 6, 2721281571u, 0},
                     {JobModel::kKOptimize, 6, 1600655993u, 0},
                     {JobModel::kMondrian, 6, 1157924558u, 0}});
}

TEST(ReleasedViewPinTest, DemoSpecWithSuppression) {
  JobSpec spec = DemoSpec(JobModel::kKAnonymity);
  spec.k = 4;
  spec.max_suppressed = 2;
  ExpectPinnedViews(spec, "Disease",
                    {{JobModel::kKAnonymity, 4, 3833740105u, 2},
                     {JobModel::kLDiversity, 4, 3833740105u, 2},
                     {JobModel::kKOptimize, 4, 942369991u, 2}});
}

TEST(ReleasedViewPinTest, QuotedValuesAndLabels) {
  // Names and cities hold ',' and '"'; " 34" and "34" are one value; the
  // city labels hold ',' and '"' too.
  const std::string data = INCOGNITO_TEST_DATA_DIR;
  JobSpec spec;
  spec.input = data + "/release_quoting.csv";
  spec.qid = {"City", "Zip", "Age"};
  spec.hierarchies = {{"City", "file:" + data + "/release_quoting_city.csv"},
                      {"Zip", "digits:5:2"},
                      {"Age", "interval:5:10"}};
  spec.k = 2;
  ExpectPinnedViews(spec, "Name",
                    {{JobModel::kKAnonymity, 8, 329406301u, 0},
                     {JobModel::kLDiversity, 8, 329406301u, 0},
                     {JobModel::kKOptimize, 8, 3507362997u, 0},
                     {JobModel::kMondrian, 8, 901605155u, 0}});
}

TEST(ReleasedViewPinTest, ServiceMixedInputsAtGeneratorOrder) {
  // The service benchmark's inputs, unshuffled: Adults at 45,222 rows, the
  // first five attributes through file: hierarchies, k = 10.
  Result<SyntheticDataset> adults = MakeAdultsDataset(AdultsOptions{45222});
  ASSERT_TRUE(adults.ok()) << adults.status().ToString();
  JobSpec spec;
  spec.input = testing_util::TempPath("pin_adults.csv");
  spec.k = 10;
  ASSERT_TRUE(WriteCsv(adults->table, spec.input).ok());
  std::vector<std::string> files = {spec.input};
  for (size_t i = 0; i < 5; ++i) {
    const std::string path =
        testing_util::TempPath("pin_hierarchy_" + std::to_string(i) + ".csv");
    ASSERT_TRUE(WriteHierarchyCsv(adults->qid.hierarchy(i), path).ok());
    spec.qid.push_back(adults->qid.name(i));
    spec.hierarchies[adults->qid.name(i)] = "file:" + path;
    files.push_back(path);
  }
  JobSpec super_roots = spec;
  super_roots.variant = IncognitoVariant::kSuperRoots;
  ExpectPinnedViews(spec, "Occupation",
                    {{JobModel::kKAnonymity, 45222, 1713633459u, 0},
                     {JobModel::kLDiversity, 45222, 1713633459u, 0},
                     {JobModel::kMondrian, 45222, 2701116371u, 0}});
  ExpectPinnedViews(super_roots, "Occupation",
                    {{JobModel::kKAnonymity, 45222, 1713633459u, 0}});
  for (const std::string& file : files) std::remove(file.c_str());
}

// ---------------------------------------------------------------------------
// Admission control and lifecycle.
// ---------------------------------------------------------------------------

TEST(ServiceCoreTest, SubmitPollWaitFetch) {
  ServiceConfig config;
  config.num_workers = 1;
  ServiceCore core(config);
  Result<JobId> id = core.Submit(DemoSpec(JobModel::kKAnonymity));
  ASSERT_TRUE(id.ok());
  Result<JobResult> result = core.Wait(id.value());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->status.ok());
  Result<JobSnapshot> snapshot = core.Poll(id.value());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->state, JobState::kDone);
  EXPECT_EQ(snapshot->finish_seq, 1);
  Result<JobResult> fetched = core.FetchResult(id.value());
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(JobResultToJson(fetched.value()), JobResultToJson(result.value()));
  EXPECT_EQ(core.Poll(999).status().code(), StatusCode::kNotFound);
}

TEST(ServiceCoreTest, MemoryGaugesReadTheJobsExactCharges) {
  // A finished job has released every byte its governor charged, and its
  // peak is what the demo search held: a few small frequency sets.
  ServiceConfig config;
  config.num_workers = 1;
  ServiceCore core(config);
  JobSpec spec = DemoSpec(JobModel::kKAnonymity);
  spec.exec.memory_budget_bytes = int64_t{64} << 20;
  Result<JobId> id = core.Submit(spec);
  ASSERT_TRUE(id.ok());
  Result<JobResult> result = core.Wait(id.value());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->status.ok()) << result->status.ToString();
  Result<JobSnapshot> snapshot = core.Poll(id.value());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->memory_used_bytes, 0);
  EXPECT_GT(snapshot->memory_peak_bytes, 0);
  EXPECT_LT(snapshot->memory_peak_bytes, int64_t{256} << 10);
}

TEST(ServiceCoreTest, QueueDepthAndTenantQuotaBackpressure) {
  ServiceConfig config;
  config.num_workers = 0;  // nothing dequeues: the queue state is exact
  config.queue_depth = 3;
  config.per_tenant_queue_depth = 2;
  ServiceCore core(config);

  JobSpec spec = DemoSpec(JobModel::kKAnonymity);
  spec.tenant = "acme";
  ASSERT_TRUE(core.Submit(spec).ok());
  ASSERT_TRUE(core.Submit(spec).ok());
  // Third acme job: the per-tenant quota rejects first.
  Result<JobId> quota = core.Submit(spec);
  ASSERT_FALSE(quota.ok());
  EXPECT_EQ(quota.status().code(), StatusCode::kResourceExhausted);

  JobSpec other = spec;
  other.tenant = "beta";
  ASSERT_TRUE(core.Submit(other).ok());
  // Fourth queued job overall: the global depth rejects regardless of
  // tenant.
  JobSpec third = spec;
  third.tenant = "gamma";
  Result<JobId> full = core.Submit(third);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kResourceExhausted);

  ServiceStats stats = core.stats();
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.rejected_tenant_quota, 1);
  EXPECT_EQ(stats.rejected_queue_full, 1);
}

TEST(ServiceCoreTest, MemoryLeasePoolBoundsAdmission) {
  ServiceConfig config;
  config.num_workers = 0;
  config.memory_limit_bytes = 32 << 20;
  config.default_job_lease_bytes = 16 << 20;
  ServiceCore core(config);
  JobSpec spec = DemoSpec(JobModel::kKAnonymity);
  Result<JobId> first = core.Submit(spec);
  Result<JobId> second = core.Submit(spec);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  Result<JobId> third = core.Submit(spec);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(core.stats().rejected_memory, 1);
  // Cancelling a queued job returns its lease, reopening admission.
  ASSERT_TRUE(core.Cancel(first.value()).ok());
  EXPECT_TRUE(core.Submit(spec).ok());
}

TEST(ServiceCoreTest, JobsLeaseTheirBudgetAndTheDefaultOnlyWithoutOne) {
  // A job with a memory budget leases exactly that budget, even below the
  // default; only a job without one leases the default.
  ServiceConfig config;
  config.num_workers = 0;  // nothing dequeues: every lease stays held
  config.memory_limit_bytes = 4 << 20;
  config.default_job_lease_bytes = 16 << 20;
  ServiceCore core(config);
  // The 16 MiB default exceeds the whole pool: refused while it is empty.
  Result<JobId> unbudgeted = core.Submit(DemoSpec(JobModel::kKAnonymity));
  ASSERT_FALSE(unbudgeted.ok());
  EXPECT_EQ(unbudgeted.status().code(), StatusCode::kResourceExhausted);
  JobSpec budgeted = DemoSpec(JobModel::kKAnonymity);
  budgeted.exec.memory_budget_bytes = 1 << 20;
  for (int job = 0; job < 4; ++job) {
    EXPECT_TRUE(core.Submit(budgeted).ok()) << "job " << job;
  }
  Result<JobId> fifth = core.Submit(budgeted);
  ASSERT_FALSE(fifth.ok());
  EXPECT_EQ(fifth.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(core.stats().admitted, 4);
  EXPECT_EQ(core.stats().rejected_memory, 2);
}

TEST(ServiceCoreTest, CancelQueuedJobCompletesWithCancelled) {
  ServiceConfig config;
  config.num_workers = 0;
  ServiceCore core(config);
  Result<JobId> id = core.Submit(DemoSpec(JobModel::kKAnonymity));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(core.Cancel(id.value()).ok());
  Result<JobResult> result = core.Wait(id.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status.code(), StatusCode::kCancelled);
  EXPECT_EQ(core.stats().cancelled, 1);
  // Cancelling a done job is a no-op, not an error.
  EXPECT_TRUE(core.Cancel(id.value()).ok());
}

TEST(ServiceCoreTest, WeightedFairSchedulingInterleavesUnderFlood) {
  ServiceConfig config;
  config.num_workers = 0;  // stage the whole backlog first
  config.queue_depth = 64;
  config.per_tenant_queue_depth = 64;
  ServiceCore core(config);
  std::vector<JobId> flood, minority;
  JobSpec acme = DemoSpec(JobModel::kMondrian);
  acme.tenant = "acme";
  for (int i = 0; i < 6; ++i) {
    Result<JobId> id = core.Submit(acme);
    ASSERT_TRUE(id.ok());
    flood.push_back(id.value());
  }
  JobSpec beta = acme;
  beta.tenant = "beta";
  for (int i = 0; i < 2; ++i) {
    Result<JobId> id = core.Submit(beta);
    ASSERT_TRUE(id.ok());
    minority.push_back(id.value());
  }
  core.StartWorkers(1);
  for (JobId id : flood) ASSERT_TRUE(core.Wait(id).ok());
  for (JobId id : minority) ASSERT_TRUE(core.Wait(id).ok());
  // Stride scheduling with equal weights alternates tenants, so beta's
  // two jobs finish within the first four dispatches instead of waiting
  // behind acme's entire flood (positions 7 and 8 under global FIFO).
  for (JobId id : minority) {
    Result<JobSnapshot> snapshot = core.Poll(id);
    ASSERT_TRUE(snapshot.ok());
    EXPECT_LE(snapshot->finish_seq, 4) << "beta job starved";
  }
}

TEST(ServiceCoreTest, DrainCompletesAdmittedJobsAndStopsAdmission) {
  ServiceConfig config;
  config.num_workers = 1;
  ServiceCore core(config);
  std::vector<JobId> jobs;
  for (int i = 0; i < 3; ++i) {
    Result<JobId> id = core.Submit(DemoSpec(JobModel::kMondrian));
    ASSERT_TRUE(id.ok());
    jobs.push_back(id.value());
  }
  core.Drain();
  // Every admitted job completed (not cancelled) before Drain returned.
  for (JobId id : jobs) {
    Result<JobResult> result = core.FetchResult(id);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->status.ok());
  }
  Result<JobId> late = core.Submit(DemoSpec(JobModel::kMondrian));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(core.stats().rejected_draining, 1);
}

TEST(ServiceCoreTest, TinyMemoryBudgetTripsToSoundPartial) {
  ServiceConfig config;
  config.num_workers = 1;
  ServiceCore core(config);
  JobSpec spec = DemoSpec(JobModel::kKAnonymity);
  spec.exec.memory_budget_bytes = 256;  // trips on the first charge
  spec.partial_ok = true;
  Result<JobId> id = core.Submit(spec);
  ASSERT_TRUE(id.ok());
  Result<JobResult> result = core.Wait(id.value());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->partial);
  EXPECT_TRUE(IsResourceGovernance(result->status.code()))
      << result->status.ToString();
}

TEST(ServiceCoreTest, WideQidJobIsRefusedAndTheDaemonKeepsServing) {
  // 32 attributes need a 2^32-slot subset task table, and a 25-attribute
  // Cube job a 2^25-set cube. Jobs without a memory budget must finish
  // with the refusal instead of aborting the process, and the same core
  // then serves the next job.
  const std::string path = testing_util::TempPath("service_wide_qid.csv");
  JobSpec wide;
  wide.input = path;
  wide.model = JobModel::kKAnonymity;
  wide.k = 2;
  {
    std::ofstream csv(path, std::ios::trunc);
    std::string header, first, second;
    for (int i = 0; i < 32; ++i) {
      const std::string name = "a" + std::to_string(i);
      wide.qid.push_back(name);
      wide.hierarchies[name] = "suppress";
      const std::string sep = i == 0 ? "" : ",";
      header += sep + name;
      first += sep + "x";
      second += sep + "y";
    }
    csv << header << "\n" << first << "\n" << second << "\n";
    ASSERT_TRUE(csv.good());
  }
  ServiceConfig config;
  config.num_workers = 1;
  ServiceCore core(config);
  Result<JobId> refused = core.Submit(wide);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  Result<JobResult> refusal = core.Wait(refused.value());
  ASSERT_TRUE(refusal.ok());
  EXPECT_EQ(refusal->status.code(), StatusCode::kResourceExhausted)
      << refusal->status.ToString();
  EXPECT_TRUE(refusal->nodes.empty());

  // A Cube job over the first 25 attributes is refused before any work:
  // its cube would hold 2^25 frequency sets.
  JobSpec wide_cube = wide;
  wide_cube.variant = IncognitoVariant::kCube;
  wide_cube.qid.resize(25);
  for (int i = 25; i < 32; ++i) {
    wide_cube.hierarchies.erase("a" + std::to_string(i));
  }
  Result<JobId> cube_refused = core.Submit(wide_cube);
  ASSERT_TRUE(cube_refused.ok()) << cube_refused.status().ToString();
  Result<JobResult> cube_refusal = core.Wait(cube_refused.value());
  ASSERT_TRUE(cube_refusal.ok());
  EXPECT_EQ(cube_refusal->status.code(), StatusCode::kInvalidArgument)
      << cube_refusal->status.ToString();
  EXPECT_TRUE(cube_refusal->nodes.empty());

  Result<JobId> next = core.Submit(DemoSpec(JobModel::kKAnonymity));
  ASSERT_TRUE(next.ok());
  Result<JobResult> served = core.Wait(next.value());
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served->status.ok()) << served->status.ToString();
  EXPECT_FALSE(served->nodes.empty());
  std::remove(path.c_str());
}

TEST(ServiceCoreTest, NegativeDigitSpecIsRefusedAndTheDaemonKeepsServing) {
  // "digits:-1:1" once spun the worker for ever inside LoadProblem, before
  // any deadline or cancel is polled.
  ServiceConfig config;
  config.num_workers = 1;
  ServiceCore core(config);
  JobSpec bad = DemoSpec(JobModel::kKAnonymity);
  bad.hierarchies["Zipcode"] = "digits:-1:1";
  Result<JobId> refused = core.Submit(bad);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  Result<JobResult> refusal = core.Wait(refused.value());
  ASSERT_TRUE(refusal.ok());
  EXPECT_EQ(refusal->status.code(), StatusCode::kInvalidArgument)
      << refusal->status.ToString();

  Result<JobId> next = core.Submit(DemoSpec(JobModel::kKAnonymity));
  ASSERT_TRUE(next.ok());
  Result<JobResult> served = core.Wait(next.value());
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served->status.ok()) << served->status.ToString();
  EXPECT_FALSE(served->nodes.empty());
}

TEST(ServiceCoreTest, ConcurrentSubmitPollCancelFromManyClients) {
  ServiceConfig config;
  config.num_workers = 2;
  config.queue_depth = 256;
  config.per_tenant_queue_depth = 256;
  ServiceCore core(config);
  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 4;
  std::vector<std::thread> clients;
  std::vector<std::vector<JobId>> ids(kThreads);
  std::atomic<int> rejected{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      JobSpec spec = DemoSpec(JobModel::kMondrian);
      spec.tenant = "tenant-" + std::to_string(t);
      for (int i = 0; i < kJobsPerThread; ++i) {
        Result<JobId> id = core.Submit(spec);
        if (!id.ok()) {
          rejected.fetch_add(1);
          continue;
        }
        ids[t].push_back(id.value());
        Result<JobSnapshot> snapshot = core.Poll(id.value());
        EXPECT_TRUE(snapshot.ok());
        if (i % 2 == 1) {
          EXPECT_TRUE(core.Cancel(id.value()).ok());
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  int done = 0;
  for (const std::vector<JobId>& thread_ids : ids) {
    for (JobId id : thread_ids) {
      Result<JobResult> result = core.Wait(id);
      ASSERT_TRUE(result.ok());
      // Every job ends in a clean outcome: complete, cancelled while
      // queued, or a sound cancel-partial from mid-run.
      EXPECT_TRUE(result->status.ok() ||
                  IsResourceGovernance(result->status.code()))
          << result->status.ToString();
      ++done;
    }
  }
  EXPECT_EQ(done + rejected.load(), kThreads * kJobsPerThread);
  ServiceStats stats = core.stats();
  EXPECT_EQ(stats.admitted, done);
}

// ---------------------------------------------------------------------------
// The socket protocol.
// ---------------------------------------------------------------------------

/// A connected client socket to the daemon at `socket_path`.
Result<int> ConnectTo(const std::string& socket_path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long");
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket() failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError("connect failed");
  }
  return fd;
}

/// Minimal raw protocol client: one connect / request-line / reply-line.
Result<obs::JsonValue> RawRoundTrip(const std::string& socket_path,
                                    const std::string& request) {
  Result<int> connected = ConnectTo(socket_path);
  if (!connected.ok()) return connected.status();
  const int fd = connected.value();
  std::string line = request + "\n";
  if (::write(fd, line.data(), line.size()) !=
      static_cast<ssize_t>(line.size())) {
    ::close(fd);
    return Status::IOError("write failed");
  }
  std::string reply;
  char chunk[4096];
  while (reply.find('\n') == std::string::npos) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      ::close(fd);
      return Status::IOError("daemon closed mid-reply");
    }
    reply.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  reply.resize(reply.find('\n'));
  obs::JsonValue parsed;
  std::string error;
  if (!obs::ParseJson(reply, &parsed, &error)) {
    return Status::Internal("bad reply JSON: " + error);
  }
  return parsed;
}

std::string TestSocketPath() {
  return "/tmp/inc_svc_test_" + std::to_string(getpid()) + ".sock";
}

int64_t NumField(const obs::JsonValue& v, const char* key) {
  const obs::JsonValue* f = v.Find(key);
  return static_cast<int64_t>(f ? f->NumberOr(-1) : -1);
}

bool BoolField(const obs::JsonValue& v, const char* key) {
  const obs::JsonValue* f = v.Find(key);
  return f != nullptr && f->is_bool() && f->b;
}

std::string StrField(const obs::JsonValue& v, const char* key) {
  const obs::JsonValue* f = v.Find(key);
  return f ? f->StringOr("") : "";
}

TEST(ServiceServerTest, EndToEndSubmitStatusResultShutdown) {
  ServiceConfig config;
  config.num_workers = 1;
  ServiceCore core(config);
  std::string path = TestSocketPath();
  ServiceServer server(&core, path);
  ASSERT_TRUE(server.Start().ok());

  Result<obs::JsonValue> pong = RawRoundTrip(path, "{\"op\":\"ping\"}");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(BoolField(pong.value(), "ok"));
  EXPECT_EQ(NumField(pong.value(), "exit_code"), 0);

  JobSpec spec = DemoSpec(JobModel::kKAnonymity);
  Result<obs::JsonValue> submitted = RawRoundTrip(
      path, "{\"op\":\"submit\",\"spec\":" + JobSpecToJson(spec) + "}");
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(BoolField(submitted.value(), "ok"))
      << StrField(submitted.value(), "error");
  int64_t id = NumField(submitted.value(), "id");
  ASSERT_GT(id, 0);

  Result<obs::JsonValue> result = RawRoundTrip(
      path, "{\"op\":\"result\",\"id\":" + std::to_string(id) +
                ",\"wait\":true}");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(BoolField(result.value(), "ok"));
  EXPECT_EQ(StrField(result.value(), "status"), "OK");
  EXPECT_EQ(NumField(result.value(), "exit_code"), 0);
  // The wire result is the canonical JSON, bit-identical to a direct
  // in-process execution of the same spec.
  ExecutionGovernor governor;
  EXPECT_EQ(StrField(result.value(), "result"),
            JobResultToJson(ExecuteJob(spec, &governor)));

  Result<obs::JsonValue> status = RawRoundTrip(
      path, "{\"op\":\"status\",\"id\":" + std::to_string(id) + "}");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(StrField(status.value(), "state"), "done");
  EXPECT_EQ(StrField(status.value(), "model"), "k-anonymity");

  // Unknown job: the protocol's invalid-input class (exit code 3).
  Result<obs::JsonValue> missing =
      RawRoundTrip(path, "{\"op\":\"status\",\"id\":4242}");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(BoolField(missing.value(), "ok"));
  EXPECT_EQ(StrField(missing.value(), "status"), "NotFound");
  EXPECT_EQ(NumField(missing.value(), "exit_code"), 3);

  // Malformed request line.
  Result<obs::JsonValue> bad = RawRoundTrip(path, "{nope");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(BoolField(bad.value(), "ok"));
  EXPECT_EQ(StrField(bad.value(), "status"), "InvalidArgument");

  EXPECT_FALSE(server.ShutdownRequested());
  Result<obs::JsonValue> shutdown =
      RawRoundTrip(path, "{\"op\":\"shutdown\"}");
  ASSERT_TRUE(shutdown.ok());
  EXPECT_TRUE(BoolField(shutdown.value(), "ok"));
  EXPECT_TRUE(server.ShutdownRequested());
  server.Stop();
}

TEST(ServiceServerTest, OverlongRequestLineIsRefusedAndClosed) {
  ServiceConfig config;
  config.num_workers = 1;
  ServiceCore core(config);
  std::string path = TestSocketPath() + ".overlong";
  ServiceServer server(&core, path);
  ASSERT_TRUE(server.Start().ok());

  Result<int> connected = ConnectTo(path);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const int fd = connected.value();
  // A server that waits for the newline fails the test instead of hanging it.
  timeval timeout{};
  timeout.tv_sec = 20;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  // 2 MiB with no newline. The server stops reading at the 1 MiB cap and
  // closes, so the tail of this send may fail with EPIPE (no SIGPIPE).
  const std::string flood(2 * kMaxRequestLineBytes, 'x');
  for (size_t sent = 0; sent < flood.size();) {
    ssize_t n = ::send(fd, flood.data() + sent, flood.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string received;
  char chunk[4096];
  for (;;) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      // End of stream, or a reset because the server closed with our
      // unread bytes still queued — both mean closed; a timeout does not.
      EXPECT_TRUE(n == 0 || errno == ECONNRESET) << std::strerror(errno);
      break;
    }
    received.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  // Exactly one reply line, then end of stream.
  ASSERT_FALSE(received.empty());
  EXPECT_EQ(received.find('\n'), received.size() - 1) << received;
  obs::JsonValue reply;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(received.substr(0, received.size() - 1), &reply,
                             &error))
      << error;
  EXPECT_FALSE(BoolField(reply, "ok"));
  EXPECT_EQ(StrField(reply, "status"), "InvalidArgument");
  EXPECT_EQ(NumField(reply, "exit_code"), 3);

  // The daemon itself is unharmed.
  Result<obs::JsonValue> pong = RawRoundTrip(path, "{\"op\":\"ping\"}");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(BoolField(pong.value(), "ok"));
  server.Stop();
}

TEST(ServiceServerTest, FinishedConnectionThreadsAreReaped) {
  // incognito_client opens one connection per command, so a long-running
  // daemon must not keep a thread for every connection it has served.
  ServiceConfig config;
  config.num_workers = 1;
  ServiceCore core(config);
  std::string path = TestSocketPath() + ".reap";
  ServiceServer server(&core, path);
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 200; ++i) {
    Result<obs::JsonValue> pong = RawRoundTrip(path, "{\"op\":\"ping\"}");
    ASSERT_TRUE(pong.ok()) << i << ": " << pong.status().ToString();
  }
  // The last connection's thread, plus any that had not yet seen their
  // client close when the next connection was accepted.
  EXPECT_LE(server.ConnectionThreadCount(), 8u);
  server.Stop();
  EXPECT_EQ(server.ConnectionThreadCount(), 0u);
}

TEST(ServiceServerTest, MidJobGovernorTripReturnsSoundPartialOverTheWire) {
  ServiceConfig config;
  config.num_workers = 1;
  ServiceCore core(config);
  std::string path = TestSocketPath() + ".partial";
  ServiceServer server(&core, path);
  ASSERT_TRUE(server.Start().ok());

  JobSpec spec = DemoSpec(JobModel::kKAnonymity);
  spec.exec.memory_budget_bytes = 256;  // guaranteed mid-job trip
  spec.partial_ok = true;
  Result<obs::JsonValue> submitted = RawRoundTrip(
      path, "{\"op\":\"submit\",\"spec\":" + JobSpecToJson(spec) + "}");
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(BoolField(submitted.value(), "ok"));
  int64_t id = NumField(submitted.value(), "id");

  Result<obs::JsonValue> result = RawRoundTrip(
      path, "{\"op\":\"result\",\"id\":" + std::to_string(id) +
                ",\"wait\":true}");
  ASSERT_TRUE(result.ok());
  // partial_ok makes the accepted partial a success (exit 0) while still
  // reporting the real governance status and the partial flag.
  EXPECT_TRUE(BoolField(result.value(), "ok"));
  EXPECT_EQ(NumField(result.value(), "exit_code"), 0);
  EXPECT_TRUE(BoolField(result.value(), "partial"));
  StatusCode code;
  ASSERT_TRUE(StatusCodeFromName(StrField(result.value(), "status"), &code));
  EXPECT_TRUE(IsResourceGovernance(code));
  // The embedded canonical result parses and carries the same contract.
  obs::JsonValue job_result;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(StrField(result.value(), "result"), &job_result,
                             &error))
      << error;
  EXPECT_TRUE(BoolField(job_result, "partial"));
  server.Stop();
}

TEST(ServiceServerTest, DrainOverTheWireCompletesInFlightJobs) {
  ServiceConfig config;
  config.num_workers = 1;
  ServiceCore core(config);
  std::string path = TestSocketPath() + ".drain";
  ServiceServer server(&core, path);
  ASSERT_TRUE(server.Start().ok());
  std::vector<int64_t> jobs;
  for (int i = 0; i < 3; ++i) {
    Result<obs::JsonValue> submitted = RawRoundTrip(
        path, "{\"op\":\"submit\",\"spec\":" +
                  JobSpecToJson(DemoSpec(JobModel::kMondrian)) + "}");
    ASSERT_TRUE(submitted.ok());
    ASSERT_TRUE(BoolField(submitted.value(), "ok"));
    jobs.push_back(NumField(submitted.value(), "id"));
  }
  Result<obs::JsonValue> drained = RawRoundTrip(path, "{\"op\":\"drain\"}");
  ASSERT_TRUE(drained.ok());
  EXPECT_TRUE(BoolField(drained.value(), "ok"));
  // Drain returned only after every admitted job completed.
  for (int64_t id : jobs) {
    Result<obs::JsonValue> result = RawRoundTrip(
        path, "{\"op\":\"result\",\"id\":" + std::to_string(id) + "}");
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(BoolField(result.value(), "ok"))
        << StrField(result.value(), "error");
  }
  // And admission is closed.
  Result<obs::JsonValue> late = RawRoundTrip(
      path, "{\"op\":\"submit\",\"spec\":" +
                JobSpecToJson(DemoSpec(JobModel::kMondrian)) + "}");
  ASSERT_TRUE(late.ok());
  EXPECT_FALSE(BoolField(late.value(), "ok"));
  EXPECT_EQ(StrField(late.value(), "status"), "FailedPrecondition");
  server.Stop();
}

}  // namespace
}  // namespace incognito
