// End-to-end telemetry tests (docs/OBSERVABILITY.md): a real multithreaded
// subset-DAG search is traced, reported, and bench-serialized, and each
// artifact is parsed back through obs::ParseJson to check the properties
// the downstream tooling depends on — every scheduler task event lands on
// a valid per-worker swimlane (pid 2, tid < num workers), span events nest
// properly, and the trace, RunReport, and BENCH_*.json documents are all
// loadable JSON.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/incognito.h"
#include "data/adults.h"
#include "obs/counters.h"
#include "obs/json_util.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "robust/partial_result.h"

namespace incognito {
namespace {

// The whole suite measures what the observability layer records during a
// real run, so there is nothing to test when it is compiled out — except
// that the run still works, which OsDisabledSmoke covers below.
#ifndef INCOGNITO_OBS_DISABLED

using obs::JsonValue;

constexpr int kThreads = 4;

/// One traced 4-thread run shared by the tests in this file: a 5-attribute
/// QID so the subset DAG has 31 tasks across 5 tiers — enough cross-tier
/// work that all four workers actually execute tasks.
struct TracedRun {
  IncognitoResult result;
  obs::MetricsSnapshot delta;
  std::string trace_json;

  static const TracedRun& Get() {
    static const TracedRun* run = [] {
      auto* out = new TracedRun();
      AdultsOptions adults;
      adults.num_rows = 400;
      Result<SyntheticDataset> data = MakeAdultsDataset(adults);
      EXPECT_TRUE(data.ok());
      QuasiIdentifier qid = data->qid.Prefix(5);
      AnonymizationConfig config;
      config.k = 2;

      obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
      obs::MetricsSnapshot before = obs::MetricsSnapshot::Take();
      recorder.Enable();
      PartialResult<IncognitoResult> r = RunIncognito(
          data->table, qid, config, {}, RunContext::WithThreads(kThreads));
      EXPECT_TRUE(r.ok());
      out->result = r.ok() ? *r : IncognitoResult{};
      out->delta = obs::MetricsSnapshot::Take().DeltaSince(before);
      out->trace_json = recorder.ToJson();
      recorder.Disable();
      return out;
    }();
    return *run;
  }
};

/// Parses the shared run's trace into a DOM, failing the test on error.
JsonValue ParseTrace() {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(obs::ParseJson(TracedRun::Get().trace_json, &doc, &error))
      << error;
  return doc;
}

TEST(TelemetryTest, TraceIsValidJson) {
  std::string error;
  EXPECT_TRUE(obs::IsValidJson(TracedRun::Get().trace_json, &error)) << error;
}

TEST(TelemetryTest, EveryTaskEventLandsOnAValidWorkerSwimlane) {
  JsonValue doc = ParseTrace();
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int task_events = 0;
  for (const JsonValue& event : events->array) {
    const JsonValue* ph = event.Find("ph");
    const JsonValue* pid = event.Find("pid");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(pid, nullptr);
    if (ph->StringOr("") != "X" || pid->NumberOr(0) != 2) continue;
    ++task_events;
    const JsonValue* tid = event.Find("tid");
    ASSERT_NE(tid, nullptr);
    double worker = tid->NumberOr(-1);
    EXPECT_GE(worker, 0) << "task event without a worker tid";
    EXPECT_LT(worker, kThreads) << "tid beyond the worker count";
    EXPECT_EQ(worker, std::floor(worker)) << "fractional worker tid";
  }
  // The 31-task subset DAG plus the apex-level chunks all go through the
  // pool, so the scheduler process must carry a healthy number of events.
  EXPECT_GE(task_events, 31);

  // Worker 0 (the calling thread) always participates; with 31 DAG tasks
  // at least one spawned worker must have run something too.
  std::map<int, int> per_worker;
  for (const JsonValue& event : events->array) {
    if (event.Find("ph")->StringOr("") != "X") continue;
    if (event.Find("pid")->NumberOr(0) != 2) continue;
    per_worker[static_cast<int>(event.Find("tid")->NumberOr(-1))]++;
  }
  EXPECT_GE(per_worker.size(), 2u);
}

TEST(TelemetryTest, SpanEventsNestWithinEachThread) {
  JsonValue doc = ParseTrace();
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);

  // Group complete events by (pid, tid) and check proper nesting: on one
  // thread, two spans either nest or are disjoint — partial overlap means
  // the recorder emitted garbage timestamps. Integer nanoseconds avoid
  // float comparison noise (ts/dur serialize as microseconds with three
  // decimals, i.e. exact nanoseconds).
  struct Span {
    int64_t start_ns;
    int64_t end_ns;
  };
  std::map<std::pair<int, int>, std::vector<Span>> lanes;
  for (const JsonValue& event : events->array) {
    if (event.Find("ph")->StringOr("") != "X") continue;
    Span span;
    span.start_ns =
        static_cast<int64_t>(std::llround(event.Find("ts")->NumberOr(0) * 1e3));
    span.end_ns = span.start_ns + static_cast<int64_t>(std::llround(
                                      event.Find("dur")->NumberOr(0) * 1e3));
    lanes[{static_cast<int>(event.Find("pid")->NumberOr(0)),
           static_cast<int>(event.Find("tid")->NumberOr(0))}]
        .push_back(span);
  }
  ASSERT_FALSE(lanes.empty());
  for (auto& [lane, spans] : lanes) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                      : a.end_ns > b.end_ns;
    });
    std::vector<int64_t> stack;  // end times of currently-open spans
    for (const Span& span : spans) {
      while (!stack.empty() && stack.back() <= span.start_ns) stack.pop_back();
      if (!stack.empty()) {
        EXPECT_LE(span.end_ns, stack.back())
            << "partial overlap on pid=" << lane.first
            << " tid=" << lane.second;
      }
      stack.push_back(span.end_ns);
    }
  }
}

TEST(TelemetryTest, TraceCarriesWorkerThreadMetadata) {
  JsonValue doc = ParseTrace();
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  int thread_names = 0;
  for (const JsonValue& event : events->array) {
    if (event.Find("ph")->StringOr("") != "M") continue;
    if (event.Find("name")->StringOr("") != "thread_name") continue;
    if (event.Find("pid")->NumberOr(0) != 2) continue;
    ++thread_names;
  }
  EXPECT_EQ(thread_names, kThreads);
}

TEST(TelemetryTest, RunReportRoundTripsThroughTheParser) {
  const TracedRun& run = TracedRun::Get();
  obs::RunReport report("telemetry_test", "4-thread adults qid5");
  obs::AddAlgorithmStats(run.result.stats, &report);
  if (!run.result.worker_utilization.empty()) {
    report.SetDoubleList("worker_utilization", run.result.worker_utilization);
  }
  report.AddMetrics(run.delta);
  std::string json = report.ToJson();

  std::string error;
  ASSERT_TRUE(obs::IsValidJson(json, &error)) << error;
  JsonValue doc;
  ASSERT_TRUE(obs::ParseJson(json, &doc, &error)) << error;

  // The scheduler-derived fields the acceptance tooling reads.
  const JsonValue* fields = doc.Find("fields");
  ASSERT_NE(fields, nullptr);
  const JsonValue* utilization = fields->Find("worker_utilization");
  ASSERT_NE(utilization, nullptr);
  ASSERT_TRUE(utilization->is_array());
  EXPECT_EQ(utilization->array.size(), static_cast<size_t>(kThreads));
  for (const JsonValue& u : utilization->array) {
    EXPECT_GE(u.NumberOr(-1), 0.0);
    EXPECT_LE(u.NumberOr(2), 1.0);
  }
  const JsonValue* timings = doc.Find("stat_timings");
  ASSERT_NE(timings, nullptr);
  EXPECT_NE(timings->Find("critical_path_seconds"), nullptr);
  EXPECT_NE(timings->Find("scheduler_idle_seconds"), nullptr);
  const JsonValue* stats = doc.Find("stats");
  ASSERT_NE(stats, nullptr);
  const JsonValue* tasks = stats->Find("tasks_scheduled");
  ASSERT_NE(tasks, nullptr);
  EXPECT_GE(tasks->NumberOr(0), 31);

  // Scheduler latency histograms with sane percentile ordering.
  const JsonValue* histograms = doc.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  for (const char* name : {"task.run_seconds", "task.queue_wait_seconds",
                           "freq.build_seconds"}) {
    const JsonValue* h = histograms->Find(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->Find("count")->NumberOr(0), 0) << name;
    double p50 = h->Find("p50_seconds")->NumberOr(0);
    double p95 = h->Find("p95_seconds")->NumberOr(0);
    double p99 = h->Find("p99_seconds")->NumberOr(0);
    double max = h->Find("max_seconds")->NumberOr(0);
    EXPECT_LE(p50, p95) << name;
    EXPECT_LE(p95, p99) << name;
    EXPECT_LE(p99, max) << name;
  }
}

TEST(TelemetryTest, BenchReportJsonParsesWithSchedulerStats) {
  const TracedRun& run = TracedRun::Get();
  const char* argv[] = {"telemetry_test", "--json=unused.json"};
  bench::Flags flags(2, const_cast<char**>(argv));
  bench::BenchReport bench_report(flags, "telemetry");
  bench_report.Add("adults", 2, 5, "Parallel Incognito (4 threads)", 0.25,
                   run.result.anonymous_nodes.size(), run.result.stats,
                   run.delta);
  bench_report.SetDerived("speedup_threads_4", 1.0);
  std::string json = bench_report.ToJson();

  std::string error;
  ASSERT_TRUE(obs::IsValidJson(json, &error)) << error;
  JsonValue doc;
  ASSERT_TRUE(obs::ParseJson(json, &doc, &error)) << error;
  const JsonValue* runs = doc.Find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 1u);
  const JsonValue& entry = runs->array[0];
  const JsonValue* stats = entry.Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(stats->Find("tasks_scheduled")->NumberOr(0), 31);
  EXPECT_NE(stats->Find("critical_path_seconds"), nullptr);
  EXPECT_NE(stats->Find("scheduler_idle_seconds"), nullptr);
  const JsonValue* histograms = entry.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  EXPECT_NE(histograms->Find("task.run_seconds"), nullptr);
  const JsonValue* derived = doc.Find("derived");
  ASSERT_NE(derived, nullptr);
  EXPECT_EQ(derived->Find("speedup_threads_4")->NumberOr(0), 1.0);
}

TEST(TelemetryTest, ResultCarriesWorkerUtilization) {
  const TracedRun& run = TracedRun::Get();
  ASSERT_EQ(run.result.worker_utilization.size(),
            static_cast<size_t>(kThreads));
  // Worker 0 is the calling thread: it always runs at least the apex
  // chunks, so its utilization is strictly positive.
  EXPECT_GT(run.result.worker_utilization[0], 0.0);
  for (double u : run.result.worker_utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
  EXPECT_GT(run.result.stats.critical_path_seconds, 0.0);
  EXPECT_GE(run.result.stats.scheduler_idle_seconds, 0.0);
}

#else  // INCOGNITO_OBS_DISABLED

TEST(TelemetryTest, ObsDisabledRunStillWorks) {
  AdultsOptions adults;
  adults.num_rows = 400;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  AnonymizationConfig config;
  config.k = 2;
  PartialResult<IncognitoResult> r =
      RunIncognito(data->table, data->qid.Prefix(5), config, {},
                   RunContext::WithThreads(4));
  ASSERT_TRUE(r.ok());
  // No timeline is recorded when observability is compiled out.
  EXPECT_TRUE(r->worker_utilization.empty());
}

#endif  // INCOGNITO_OBS_DISABLED

}  // namespace
}  // namespace incognito
