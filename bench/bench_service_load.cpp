// Closed-loop load bench for the multi-tenant anonymization service
// (src/service/): drives an in-process ServiceCore with the same JobSpecs
// the socket daemon receives and reports throughput, job-latency
// percentiles, and a governed-fairness-under-overload metric.
//
// Three phases:
//   1. Throughput/latency: one tenant submits a closed-loop stream of
//      mixed-model jobs against a 1-worker core; per-job latency
//      (submit → done, queueing included) feeds an obs::Histogram.
//   2. Worker scaling: the same kind of stream on jobs long enough to
//      measure the workers rather than the dispatch (250,000 rows a job,
//      about 60 ms at one worker), against a 1- and a 2-worker core in
//      alternation; each worker count's throughput is the median of 5
//      streams, and service_throughput_speedup = jobs/sec(2w) /
//      jobs/sec(1w).
//   3. Fairness under overload: tenant "acme" floods the queue, tenant
//      "beta" submits a handful of jobs after it; with stride weighted-fair
//      scheduling beta's jobs interleave instead of waiting behind the
//      flood. service_fairness_wait_ratio = (mean finish_seq of beta's
//      jobs) / (mean finish_seq overall) — ~2x under FIFO starvation,
//      well under 1 when fair; growth is a fairness regression.
//
// Derived keys (gated by tools/bench_diff.cpp in CI):
//   service_job_p50_seconds, service_job_p99_seconds (time class),
//   service_throughput_speedup (speedup class),
//   service_fairness_wait_ratio (counter class: growth flagged).
//
// Flags: --jobs=N (default 18) --flood=N (default 12) --minority=N
//        (default 3) --rows=N (default 400; the rows of a latency or
//        fairness job) --quick --json[=FILE]

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/counters.h"
#include "service/service.h"

using namespace incognito;
using namespace incognito::bench;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Writes a deterministic 4-column microdata CSV (the daemon takes dataset
/// references, so the bench stages one on disk) and returns its path.
std::string WriteBenchCsv(size_t rows) {
  std::string path = "/tmp/bench_service_load_" + std::to_string(getpid()) +
                     "_" + std::to_string(rows) + ".csv";
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return "";
  fprintf(f, "Birthdate,Sex,Zipcode,Disease\n");
  static const char* kDates[] = {"1964-01-21", "1964-02-07", "1965-10-23",
                                 "1965-03-15", "1966-07-02", "1967-12-30"};
  static const char* kDiseases[] = {"flu", "cold", "cancer", "asthma"};
  for (size_t i = 0; i < rows; ++i) {
    fprintf(f, "%s,%s,%05zu,%s\n", kDates[i % 6], i % 2 == 0 ? "M" : "F",
            53700 + (i * 7) % 40, kDiseases[i % 4]);
  }
  fclose(f);
  return path;
}

/// One of the service's four models, cycling so the stream is mixed.
JobSpec MakeSpec(const std::string& input, const std::string& tenant,
                 size_t index) {
  JobSpec spec;
  spec.tenant = tenant;
  spec.input = input;
  spec.qid = {"Birthdate", "Sex", "Zipcode"};
  spec.hierarchies = {{"Birthdate", "date"},
                      {"Sex", "suppress"},
                      {"Zipcode", "digits:5:3"}};
  spec.k = 2;
  switch (index % 4) {
    case 0:
      spec.model = JobModel::kKAnonymity;
      break;
    case 1:
      spec.model = JobModel::kMondrian;
      break;
    case 2:
      spec.model = JobModel::kLDiversity;
      spec.l = 2;
      spec.sensitive_attribute = "Disease";
      break;
    default:
      spec.model = JobModel::kKAnonymity;
      spec.variant = IncognitoVariant::kSuperRoots;
      break;
  }
  return spec;
}

struct PhaseResult {
  double jobs_per_sec = 0;
  int failures = 0;
};

/// Closed-loop stream: submit, wait, record latency, next — `inflight`
/// submissions are kept outstanding so the worker never idles.
PhaseResult RunStream(const std::string& input, int num_workers,
                      size_t num_jobs, obs::Histogram* latency) {
  ServiceConfig config;
  config.num_workers = num_workers;
  config.queue_depth = num_jobs + 1;
  config.per_tenant_queue_depth = num_jobs + 1;
  ServiceCore core(config);
  PhaseResult out;
  Clock::time_point phase_start = Clock::now();
  std::vector<std::pair<JobId, Clock::time_point>> pending;
  for (size_t i = 0; i < num_jobs; ++i) {
    Result<JobId> id = core.Submit(MakeSpec(input, "acme", i));
    if (!id.ok()) {
      ++out.failures;
      continue;
    }
    pending.emplace_back(id.value(), Clock::now());
  }
  for (const auto& [id, submitted] : pending) {
    Result<JobResult> result = core.Wait(id);
    if (latency != nullptr) latency->RecordSeconds(SecondsSince(submitted));
    if (!result.ok() || !result->status.ok()) ++out.failures;
  }
  double elapsed = SecondsSince(phase_start);
  out.jobs_per_sec = elapsed > 0 ? static_cast<double>(pending.size()) /
                                       elapsed
                                 : 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  bool quick = flags.GetBool("quick", false);
  size_t num_jobs =
      static_cast<size_t>(flags.GetInt("jobs", quick ? 8 : 18));
  size_t flood = static_cast<size_t>(flags.GetInt("flood", quick ? 6 : 12));
  size_t minority =
      static_cast<size_t>(flags.GetInt("minority", quick ? 2 : 3));
  size_t rows = static_cast<size_t>(flags.GetInt("rows", quick ? 200 : 400));
  BenchReport report(flags, "service_load");
  if (!flags.CheckUnknown()) return 2;

  std::string input = WriteBenchCsv(rows);
  if (input.empty()) {
    fprintf(stderr, "error: cannot stage the bench dataset\n");
    return 1;
  }

  printf("=== Service load: %zu mixed-model jobs, %zu rows/job ===\n",
         num_jobs, rows);

  // Phase 1: closed-loop job latency at 1 worker.
  obs::Histogram* latency =
      obs::CounterRegistry::Global().GetHistogram("service.job.latency");
  PhaseResult one = RunStream(input, 1, num_jobs, latency);
  obs::HistogramSnapshot lat = latency->Snapshot();
  double p50 = lat.PercentileSeconds(50);
  double p99 = lat.PercentileSeconds(99);
  printf("latency p50 %.4fs  p99 %.4fs  mean %.4fs  (%d failures)\n", p50,
         p99, lat.MeanSeconds(), one.failures);

  // Phase 2: 1→2-worker throughput on long jobs, the worker counts
  // alternating run by run so a slow phase of the machine hits both.
  constexpr size_t kScalingRows = 250000;
  constexpr int kScalingRuns = 5;
  std::string scaling_input = WriteBenchCsv(kScalingRows);
  if (scaling_input.empty()) {
    fprintf(stderr, "error: cannot stage the scaling dataset\n");
    return 1;
  }
  std::vector<double> rates[2];
  int scaling_failures = 0;
  for (int run = 0; run < kScalingRuns; ++run) {
    for (int i = 0; i < 2; ++i) {
      const int workers = (run + i) % 2 + 1;
      PhaseResult r = RunStream(scaling_input, workers, num_jobs, nullptr);
      scaling_failures += r.failures;
      rates[workers - 1].push_back(r.jobs_per_sec);
    }
  }
  remove(scaling_input.c_str());
  for (std::vector<double>& r : rates) std::sort(r.begin(), r.end());
  const double one_rate = rates[0][kScalingRuns / 2];
  const double two_rate = rates[1][kScalingRuns / 2];
  double speedup = one_rate > 0 ? two_rate / one_rate : 0;
  printf("%zu rows/job: 1 worker %6.1f jobs/sec   2 workers %6.1f jobs/sec "
         "(speedup %.2fx, median of %d; %d failures)\n",
         kScalingRows, one_rate, two_rate, speedup, kScalingRuns,
         scaling_failures);

  // Phase 3: fairness under overload. Stage the full backlog with zero
  // workers so the dispatch order is purely the scheduler's choice, then
  // let one worker drain it.
  ServiceConfig config;
  config.num_workers = 0;
  config.queue_depth = flood + minority + 1;
  config.per_tenant_queue_depth = flood + minority + 1;
  ServiceCore core(config);
  std::vector<JobId> acme_jobs, beta_jobs;
  for (size_t i = 0; i < flood; ++i) {
    Result<JobId> id = core.Submit(MakeSpec(input, "acme", i));
    if (id.ok()) acme_jobs.push_back(id.value());
  }
  for (size_t i = 0; i < minority; ++i) {
    Result<JobId> id = core.Submit(MakeSpec(input, "beta", i));
    if (id.ok()) beta_jobs.push_back(id.value());
  }
  core.StartWorkers(1);
  double beta_seq_sum = 0, all_seq_sum = 0;
  size_t all_count = 0;
  int64_t beta_done = 0, acme_done = 0;
  auto tally = [&](const std::vector<JobId>& jobs, double* seq_sum,
                   int64_t* done) {
    for (JobId id : jobs) {
      Result<JobResult> result = core.Wait(id);
      Result<JobSnapshot> snapshot = core.Poll(id);
      if (!snapshot.ok()) continue;
      if (result.ok() && result->status.ok()) ++*done;
      if (seq_sum != nullptr) {
        *seq_sum += static_cast<double>(snapshot->finish_seq);
      }
      all_seq_sum += static_cast<double>(snapshot->finish_seq);
      ++all_count;
    }
  };
  tally(acme_jobs, nullptr, &acme_done);
  tally(beta_jobs, &beta_seq_sum, &beta_done);
  double fairness_ratio =
      (all_count > 0 && !beta_jobs.empty() && all_seq_sum > 0)
          ? (beta_seq_sum / static_cast<double>(beta_jobs.size())) /
                (all_seq_sum / static_cast<double>(all_count))
          : 0;
  printf("overload: acme %zu jobs (%lld done), beta %zu jobs (%lld done), "
         "fairness wait ratio %.3f (FIFO starvation would be ~%.1f)\n",
         acme_jobs.size(), static_cast<long long>(acme_done),
         beta_jobs.size(), static_cast<long long>(beta_done),
         fairness_ratio,
         (2.0 * flood + minority + 1) / (flood + minority + 1));
  bool both_progressed = acme_done > 0 && beta_done > 0;
  if (!both_progressed) {
    fprintf(stderr, "error: a tenant made no progress under overload\n");
  }

  report.SetDerived("service_job_p50_seconds", p50);
  report.SetDerived("service_job_p99_seconds", p99);
  report.SetDerived("service_mean_job_seconds", lat.MeanSeconds());
  report.SetDerived("service_throughput_speedup", speedup);
  report.SetDerived("service_fairness_wait_ratio", fairness_ratio);
  remove(input.c_str());
  int code = report.Write();
  return both_progressed ? code : 1;
}
