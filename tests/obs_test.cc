// Tests for the observability subsystem (src/obs/): JSON utilities, the
// counter registry, trace spans, and the RunReport schema — including the
// golden-file guarantee that identical inputs serialize to identical
// bytes, which downstream consumers of BENCH_*.json / --report rely on.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checker.h"
#include "obs/counters.h"
#include "obs/json_util.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace incognito {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// JSON utilities
// ---------------------------------------------------------------------------

TEST(JsonUtilTest, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonString("x"), "\"x\"");
}

TEST(JsonUtilTest, JsonDoubleClampsNonFinite) {
  EXPECT_EQ(JsonDouble(0.5), "0.5");
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::quiet_NaN()), "0");
}

TEST(JsonUtilTest, ValidatorAcceptsWellFormedDocuments) {
  EXPECT_TRUE(IsValidJson("{}"));
  EXPECT_TRUE(IsValidJson("[]"));
  EXPECT_TRUE(IsValidJson("{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": null}}"));
  EXPECT_TRUE(IsValidJson("[true, false, \"s\\u00e9\"]"));
}

TEST(JsonUtilTest, ParseJsonBuildsADom) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(
      "{\"a\": [1, 2.5, -3], \"s\": \"x\\ny\", \"t\": true, \"n\": null}",
      &doc, &error))
      << error;
  ASSERT_TRUE(doc.is_object());
  const JsonValue* a = doc.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[0].num, 1.0);
  EXPECT_DOUBLE_EQ(a->array[1].num, 2.5);
  EXPECT_DOUBLE_EQ(a->array[2].num, -3.0);
  EXPECT_EQ(doc.Find("s")->StringOr(""), "x\ny");
  EXPECT_TRUE(doc.Find("t")->is_bool());
  EXPECT_TRUE(doc.Find("t")->b);
  EXPECT_TRUE(doc.Find("n")->is_null());
  EXPECT_EQ(doc.Find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(doc.Find("a")->NumberOr(-1.0), -1.0);
}

TEST(JsonUtilTest, ParseJsonDecodesUnicodeEscapes) {
  JsonValue doc;
  ASSERT_TRUE(ParseJson("[\"s\\u00e9\\u0041\"]", &doc));
  ASSERT_EQ(doc.array.size(), 1u);
  EXPECT_EQ(doc.array[0].str, "s\xc3\xa9"
                              "A");
}

TEST(JsonUtilTest, ParseJsonRejectsMalformedDocuments) {
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(ParseJson("{\"a\": }", &doc, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseJson("[1, 2,]", &doc));
  EXPECT_FALSE(ParseJson("{\"a\": 1} trailing", &doc));
}

TEST(JsonUtilTest, ValidatorRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(IsValidJson("", &error));
  EXPECT_FALSE(IsValidJson("{", &error));
  EXPECT_FALSE(IsValidJson("{\"a\": }", &error));
  EXPECT_FALSE(IsValidJson("[1, 2,]", &error));
  EXPECT_FALSE(IsValidJson("{\"a\": 1} trailing", &error));
  EXPECT_FALSE(IsValidJson("{'a': 1}", &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// CounterRegistry
// ---------------------------------------------------------------------------

TEST(CounterRegistryTest, HandlesAreStableAndNamed) {
  CounterRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c, registry.GetCounter("test.counter"));
  EXPECT_EQ(c->name(), "test.counter");
  c->Add(41);
  c->Increment();
  EXPECT_EQ(c->value(), 42);
  EXPECT_EQ(registry.CounterSnapshot().at("test.counter"), 42);

  Gauge* g = registry.GetGauge("test.gauge");
  g->Set(1.5);
  g->Add(0.25);
  EXPECT_DOUBLE_EQ(g->value(), 1.75);
  EXPECT_DOUBLE_EQ(registry.GaugeSnapshot().at("test.gauge"), 1.75);

  registry.Reset();
  EXPECT_EQ(c->value(), 0);
  EXPECT_DOUBLE_EQ(g->value(), 0);
}

TEST(CounterRegistryTest, ConcurrentIncrementsAreLossless) {
  CounterRegistry registry;
  constexpr int kPerThread = 100000;
  // Two threads hammer one shared counter, one shared gauge, and one
  // private counter each; every increment must land.
  auto worker = [&registry](const char* own_name) {
    Counter* shared = registry.GetCounter("conc.shared");
    Counter* own = registry.GetCounter(own_name);
    Gauge* gauge = registry.GetGauge("conc.gauge");
    for (int i = 0; i < kPerThread; ++i) {
      shared->Increment();
      own->Increment();
      gauge->Add(1.0);
    }
  };
  std::thread t1(worker, "conc.t1");
  std::thread t2(worker, "conc.t2");
  t1.join();
  t2.join();
  EXPECT_EQ(registry.GetCounter("conc.shared")->value(), 2 * kPerThread);
  EXPECT_EQ(registry.GetCounter("conc.t1")->value(), kPerThread);
  EXPECT_EQ(registry.GetCounter("conc.t2")->value(), kPerThread);
  EXPECT_DOUBLE_EQ(registry.GetGauge("conc.gauge")->value(),
                   2.0 * kPerThread);
}

TEST(CounterRegistryTest, SnapshotDeltaIsolatesOneRegion) {
  CounterRegistry registry;
  registry.GetCounter("delta.before_only")->Add(7);
  registry.GetGauge("delta.gauge")->Set(1.0);
  MetricsSnapshot before = MetricsSnapshot::Take(registry);

  registry.GetCounter("delta.bumped")->Add(3);
  registry.GetGauge("delta.gauge")->Add(0.5);
  MetricsSnapshot delta = MetricsSnapshot::Take(registry).DeltaSince(before);

  // Only what moved inside the region appears, as the movement.
  EXPECT_EQ(delta.counters.size(), 1u);
  EXPECT_EQ(delta.counters.at("delta.bumped"), 3);
  EXPECT_EQ(delta.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(delta.gauges.at("delta.gauge"), 0.5);
}

TEST(CounterRegistryTest, ScopedPhaseTimerAccumulates) {
  CounterRegistry registry;
  Gauge* gauge = registry.GetGauge("timer.seconds");
  { ScopedPhaseTimer timer(gauge); }
  { ScopedPhaseTimer timer(gauge); }
  EXPECT_GT(gauge->value(), 0.0);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketForIsLogarithmic) {
  // Bucket 0 catches non-positive durations; bucket b holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::BucketFor(-5), 0);
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketFor(1), 1);
  EXPECT_EQ(Histogram::BucketFor(2), 2);
  EXPECT_EQ(Histogram::BucketFor(3), 2);
  EXPECT_EQ(Histogram::BucketFor(4), 3);
  EXPECT_EQ(Histogram::BucketFor(1023), 10);
  EXPECT_EQ(Histogram::BucketFor(1024), 11);
  EXPECT_EQ(Histogram::BucketFor(std::numeric_limits<int64_t>::max()),
            HistogramSnapshot::kNumBuckets - 1);
}

TEST(HistogramTest, RecordsCountSumMaxAndPercentiles) {
  CounterRegistry registry;
  Histogram* hist = registry.GetHistogram("test.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist, registry.GetHistogram("test.hist"));
  for (int64_t us = 1; us <= 1000; ++us) {
    hist->RecordNanos(us * 1000);  // 1µs .. 1ms, uniform
  }
  HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, 1000);
  EXPECT_EQ(snap.sum_ns, 1000 * 1001 / 2 * 1000);
  EXPECT_EQ(snap.max_ns, 1000000);
  double p50 = snap.PercentileSeconds(50);
  double p95 = snap.PercentileSeconds(95);
  double p99 = snap.PercentileSeconds(99);
  // Log-binning bounds each estimate within its power-of-two bucket, and
  // percentiles must be monotone and capped by the observed max.
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, snap.MaxSeconds());
  // The true p50 is ~500µs, inside the [2^18, 2^19) ns bucket.
  EXPECT_GT(p50, 262e-6);
  EXPECT_LT(p50, 525e-6);
  EXPECT_DOUBLE_EQ(snap.MaxSeconds(), 1e-3);
  EXPECT_DOUBLE_EQ(snap.MeanSeconds(), 500.5e-6);
  EXPECT_NEAR(snap.PercentileSeconds(100), 1e-3, 1e-12);
}

TEST(HistogramTest, EmptyAndSingleValueSnapshotsAreSane) {
  CounterRegistry registry;
  HistogramSnapshot empty = registry.GetHistogram("test.empty")->Snapshot();
  EXPECT_EQ(empty.count, 0);
  EXPECT_DOUBLE_EQ(empty.PercentileSeconds(50), 0.0);
  EXPECT_DOUBLE_EQ(empty.MeanSeconds(), 0.0);

  Histogram* one = registry.GetHistogram("test.one");
  one->RecordNanos(4000);
  HistogramSnapshot snap = one->Snapshot();
  // Every percentile of a single observation is that observation (clamped
  // to the recorded max, which is exact).
  EXPECT_DOUBLE_EQ(snap.PercentileSeconds(1), 4000e-9);
  EXPECT_DOUBLE_EQ(snap.PercentileSeconds(99), 4000e-9);
}

TEST(HistogramTest, DeltaSinceSubtractsBucketwise) {
  CounterRegistry registry;
  Histogram* hist = registry.GetHistogram("test.delta");
  hist->RecordNanos(100);
  hist->RecordNanos(1000000);
  HistogramSnapshot before = hist->Snapshot();
  hist->RecordNanos(100);
  hist->RecordNanos(500);
  HistogramSnapshot delta = hist->Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.count, 2);
  EXPECT_EQ(delta.sum_ns, 600);
  // The interval's max, not the cumulative 1 ms: bounded by the upper
  // edge of its highest bucket, [256, 512) ns.
  EXPECT_GE(delta.max_ns, 500);
  EXPECT_LE(delta.max_ns, 511);
  int64_t bucket_total = 0;
  for (int64_t b : delta.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 2);
}

TEST(HistogramTest, DeltaMaxIsExactWhenTheIntervalRaisesIt) {
  CounterRegistry registry;
  Histogram* hist = registry.GetHistogram("test.delta_max");
  hist->RecordNanos(1000);
  HistogramSnapshot before = hist->Snapshot();
  hist->RecordNanos(2000);
  EXPECT_EQ(hist->Snapshot().DeltaSince(before).max_ns, 2000);
}

TEST(HistogramTest, ConcurrentRecordsAreLossless) {
  CounterRegistry registry;
  Histogram* hist = registry.GetHistogram("test.concurrent");
  constexpr int kPerThread = 50000;
  auto worker = [hist] {
    for (int i = 0; i < kPerThread; ++i) hist->RecordNanos(i + 1);
  };
  std::thread t1(worker);
  std::thread t2(worker);
  t1.join();
  t2.join();
  HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, 2 * kPerThread);
  EXPECT_EQ(snap.max_ns, kPerThread);
}

TEST(HistogramTest, ScopedTimerRecordsAndResetZeroes) {
  CounterRegistry registry;
  Histogram* hist = registry.GetHistogram("test.timer");
  { ScopedHistogramTimer timer(hist); }
  { ScopedHistogramTimer timer(hist); }
  HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, 2);
  EXPECT_GE(snap.max_ns, 0);
  registry.Reset();
  snap = hist->Snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.max_ns, 0);
}

TEST(HistogramTest, SnapshotDeltaDropsIdleHistograms) {
  CounterRegistry registry;
  registry.GetHistogram("test.idle")->RecordNanos(10);
  MetricsSnapshot before = MetricsSnapshot::Take(registry);
  registry.GetHistogram("test.busy")->RecordNanos(10);
  MetricsSnapshot delta = MetricsSnapshot::Take(registry).DeltaSince(before);
  EXPECT_EQ(delta.histograms.size(), 1u);
  EXPECT_EQ(delta.histograms.count("test.busy"), 1u);
}

// ---------------------------------------------------------------------------
// TraceRecorder and spans
// ---------------------------------------------------------------------------

TEST(TraceTest, ScopedSpansNestWithDepthAndContainment) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable();
  {
    ScopedSpan outer("nest.outer");
    {
      ScopedSpan inner("nest.inner");
    }
    {
      ScopedSpan inner2("nest.inner");
    }
  }
  recorder.Disable();

  const TraceEvent* outer = nullptr;
  std::vector<const TraceEvent*> inners;
  std::vector<TraceEvent> events = recorder.Snapshot();
  for (const TraceEvent& e : events) {
    if (e.name == "nest.outer") outer = &e;
    if (e.name == "nest.inner") inners.push_back(&e);
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_EQ(inners.size(), 2u);
  EXPECT_EQ(outer->depth, 0u);
  for (const TraceEvent* inner : inners) {
    EXPECT_EQ(inner->depth, 1u);
    EXPECT_EQ(inner->tid, outer->tid);
    // Inner spans lie within the outer span's interval.
    EXPECT_GE(inner->start_ns, outer->start_ns);
    EXPECT_LE(inner->start_ns + inner->dur_ns,
              outer->start_ns + outer->dur_ns);
  }

  std::map<std::string, SpanRollup> rollup = recorder.RollupByName();
  EXPECT_EQ(rollup.at("nest.outer").count, 1);
  EXPECT_EQ(rollup.at("nest.inner").count, 2);
}

TEST(TraceTest, DisabledRecorderRecordsNothing) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable();
  recorder.Disable();
  recorder.Clear();
  {
    ScopedSpan span("disabled.span");
  }
  EXPECT_EQ(recorder.num_events(), 0u);
}

TEST(TraceTest, JsonIsAWellFormedTraceEventArray) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable();
  {
    ScopedSpan outer("json.outer \"quoted\\name\"");
    ScopedSpan inner("json.inner");
  }
  recorder.Disable();

  std::string json = recorder.ToJson();
  std::string error;
  EXPECT_TRUE(IsValidJson(json, &error)) << error << "\n" << json;
  // Chrome trace_event object format: complete events under "traceEvents"
  // plus a drop-accounting footer.
  EXPECT_EQ(json[0], '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"droppedEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"incognito\""), std::string::npos);
  EXPECT_NE(json.find("json.inner"), std::string::npos);
}

TEST(TraceTest, CapacityBoundsTheBufferAndCountsDrops) {
  TraceRecorder recorder;
  recorder.SetCapacity(4);
  recorder.Enable();
  for (int i = 0; i < 10; ++i) {
    recorder.Record("cap.span", i * 1000, (i + 1) * 1000, 0);
  }
  recorder.Disable();
  EXPECT_EQ(recorder.num_events(), 4u);
  EXPECT_EQ(recorder.dropped_events(), 6u);
  std::string json = recorder.ToJson();
  EXPECT_TRUE(IsValidJson(json));
  EXPECT_NE(json.find("\"droppedEvents\": 6"), std::string::npos) << json;
  // Re-enabling clears the buffer and the drop counter with it.
  recorder.Enable();
  recorder.Disable();
  EXPECT_EQ(recorder.dropped_events(), 0u);
}

TEST(TraceTest, CounterAndMetadataEventsSerialize) {
  TraceRecorder recorder;
  recorder.Enable();
  recorder.RecordMetadata("thread_name", 3, 2, "\"name\":\"worker 3\"");
  recorder.RecordCounter("rss_bytes", 1000, 1, "\"value\":12345");
  recorder.RecordComplete("task", 0, 2000, 3, 2, "\"task\":7");
  recorder.Disable();
  std::string json = recorder.ToJson();
  std::string error;
  EXPECT_TRUE(IsValidJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker 3\""), std::string::npos);
  EXPECT_NE(json.find("\"task\":7"), std::string::npos);
  // Metadata and counter events never enter the span rollup.
  EXPECT_EQ(recorder.RollupByName().count("thread_name"), 0u);
  EXPECT_EQ(recorder.RollupByName().count("rss_bytes"), 0u);
}

TEST(TraceTest, EmptyTraceIsStillValidJson) {
  TraceRecorder recorder;
  EXPECT_TRUE(IsValidJson(recorder.ToJson()));
  EXPECT_EQ(recorder.num_events(), 0u);
}

// ---------------------------------------------------------------------------
// Instrumentation macros (only meaningful when obs is compiled in)
// ---------------------------------------------------------------------------

#ifndef INCOGNITO_OBS_DISABLED
TEST(ObsMacroTest, CountAndPhaseTimerHitTheGlobalRegistry) {
  CounterRegistry& global = CounterRegistry::Global();
  int64_t before = global.GetCounter("macro.test_count")->value();
  for (int i = 0; i < 3; ++i) {
    INCOGNITO_COUNT("macro.test_count");
  }
  INCOGNITO_COUNT_ADD("macro.test_count", 7);
  EXPECT_EQ(global.GetCounter("macro.test_count")->value(), before + 10);

  double gauge_before = global.GetGauge("macro.test_seconds")->value();
  {
    INCOGNITO_PHASE_TIMER("macro.test_seconds");
  }
  EXPECT_GT(global.GetGauge("macro.test_seconds")->value(), gauge_before);
}
#endif  // INCOGNITO_OBS_DISABLED

// ---------------------------------------------------------------------------
// AlgorithmStats (satellite: every field merged and printed)
// ---------------------------------------------------------------------------

// If a field is added to AlgorithmStats, this assert fires so the tests
// below, MergeCounters, ToString, and AddAlgorithmStats get extended.
static_assert(sizeof(AlgorithmStats) == 23 * 8,
              "AlgorithmStats changed: update MergeCounters/ToString/"
              "AddAlgorithmStats and these tests");

TEST(AlgorithmStatsTest, MergeCountersCoversEveryAccumulableField) {
  AlgorithmStats a;
  a.nodes_checked = 1;
  a.nodes_marked = 2;
  a.table_scans = 3;
  a.rollups = 4;
  a.freq_groups_built = 5;
  a.candidate_nodes = 6;
  a.cube_build_seconds = 0.25;
  a.total_seconds = 100.0;
  a.governor_checks = 7;
  a.deadline_trips = 1;
  a.memory_trips = 2;
  a.cancel_trips = 3;
  a.parallel_workers = 2;
  a.tasks_scheduled = 100;
  a.critical_path_seconds = 0.5;
  a.scheduler_idle_seconds = 0.25;
  a.checkpoint_writes = 1;
  a.checkpoint_bytes = 100;
  a.checkpoint_write_failures = 1;
  a.restored_iterations = 1;
  a.restored_subsets = 2;
  a.batched_scan_nodes = 4;
  a.batch_scan_seconds = 0.125;

  AlgorithmStats b;
  b.nodes_checked = 10;
  b.nodes_marked = 20;
  b.table_scans = 30;
  b.rollups = 40;
  b.freq_groups_built = 50;
  b.candidate_nodes = 60;
  b.cube_build_seconds = 0.5;
  b.total_seconds = 200.0;
  b.governor_checks = 70;
  b.deadline_trips = 10;
  b.memory_trips = 20;
  b.cancel_trips = 30;
  b.parallel_workers = 8;
  b.tasks_scheduled = 1000;
  b.critical_path_seconds = 1.5;
  b.scheduler_idle_seconds = 0.75;
  b.checkpoint_writes = 10;
  b.checkpoint_bytes = 1000;
  b.checkpoint_write_failures = 10;
  b.restored_iterations = 10;
  b.restored_subsets = 20;
  b.batched_scan_nodes = 40;
  b.batch_scan_seconds = 0.375;

  a.MergeCounters(b);
  EXPECT_EQ(a.nodes_checked, 11);
  EXPECT_EQ(a.nodes_marked, 22);
  EXPECT_EQ(a.table_scans, 33);
  EXPECT_EQ(a.rollups, 44);
  EXPECT_EQ(a.freq_groups_built, 55);
  EXPECT_EQ(a.candidate_nodes, 66);
  EXPECT_DOUBLE_EQ(a.cube_build_seconds, 0.75);
  // total_seconds is wall clock, deliberately NOT merged.
  EXPECT_DOUBLE_EQ(a.total_seconds, 100.0);
  EXPECT_EQ(a.governor_checks, 77);
  EXPECT_EQ(a.deadline_trips, 11);
  EXPECT_EQ(a.memory_trips, 22);
  EXPECT_EQ(a.cancel_trips, 33);
  // parallel_workers describes the pool, not work: merged with max.
  EXPECT_EQ(a.parallel_workers, 8);
  EXPECT_EQ(a.tasks_scheduled, 1100);
  EXPECT_DOUBLE_EQ(a.critical_path_seconds, 2.0);
  EXPECT_DOUBLE_EQ(a.scheduler_idle_seconds, 1.0);
  EXPECT_EQ(a.checkpoint_writes, 11);
  EXPECT_EQ(a.checkpoint_bytes, 1100);
  EXPECT_EQ(a.checkpoint_write_failures, 11);
  EXPECT_EQ(a.restored_iterations, 11);
  EXPECT_EQ(a.restored_subsets, 22);
  EXPECT_EQ(a.batched_scan_nodes, 44);
  EXPECT_DOUBLE_EQ(a.batch_scan_seconds, 0.5);
}

TEST(AlgorithmStatsTest, ToStringPrintsEveryField) {
  AlgorithmStats s;
  s.nodes_checked = 11;
  s.nodes_marked = 22;
  s.table_scans = 33;
  s.rollups = 44;
  s.freq_groups_built = 55;
  s.candidate_nodes = 66;
  s.cube_build_seconds = 0.125;
  s.total_seconds = 2.5;
  s.governor_checks = 77;
  s.deadline_trips = 88;
  s.memory_trips = 99;
  s.cancel_trips = 12;
  s.parallel_workers = 4;
  s.tasks_scheduled = 123;
  s.critical_path_seconds = 0.75;
  s.scheduler_idle_seconds = 0.5;
  s.checkpoint_writes = 13;
  s.checkpoint_bytes = 14;
  s.checkpoint_write_failures = 15;
  s.restored_iterations = 16;
  s.restored_subsets = 17;
  s.batched_scan_nodes = 18;
  s.batch_scan_seconds = 0.25;
  std::string str = s.ToString();
  EXPECT_NE(str.find("checked=11"), std::string::npos) << str;
  EXPECT_NE(str.find("marked=22"), std::string::npos) << str;
  EXPECT_NE(str.find("scans=33"), std::string::npos) << str;
  EXPECT_NE(str.find("rollups=44"), std::string::npos) << str;
  EXPECT_NE(str.find("groups=55"), std::string::npos) << str;
  EXPECT_NE(str.find("candidates=66"), std::string::npos) << str;
  EXPECT_NE(str.find("cube=0.125s"), std::string::npos) << str;
  EXPECT_NE(str.find("total=2.500s"), std::string::npos) << str;
  EXPECT_NE(str.find("gov_checks=77"), std::string::npos) << str;
  EXPECT_NE(str.find("dl_trips=88"), std::string::npos) << str;
  EXPECT_NE(str.find("mem_trips=99"), std::string::npos) << str;
  EXPECT_NE(str.find("cancel_trips=12"), std::string::npos) << str;
  EXPECT_NE(str.find("workers=4"), std::string::npos) << str;
  EXPECT_NE(str.find("tasks=123"), std::string::npos) << str;
  EXPECT_NE(str.find("critical_path=0.750s"), std::string::npos) << str;
  EXPECT_NE(str.find("idle=0.500s"), std::string::npos) << str;
  EXPECT_NE(str.find("ckpt_writes=13"), std::string::npos) << str;
  EXPECT_NE(str.find("ckpt_bytes=14"), std::string::npos) << str;
  EXPECT_NE(str.find("ckpt_failures=15"), std::string::npos) << str;
  EXPECT_NE(str.find("restored_iters=16"), std::string::npos) << str;
  EXPECT_NE(str.find("restored_subsets=17"), std::string::npos) << str;
  EXPECT_NE(str.find("batched=18"), std::string::npos) << str;
  EXPECT_NE(str.find("batch_scan=0.250s"), std::string::npos) << str;
}

TEST(AlgorithmStatsTest, AddAlgorithmStatsExportsEveryField) {
  AlgorithmStats s;
  s.nodes_checked = 1;
  s.nodes_marked = 2;
  s.table_scans = 3;
  s.rollups = 4;
  s.freq_groups_built = 5;
  s.candidate_nodes = 6;
  s.cube_build_seconds = 0.5;
  s.total_seconds = 1.5;
  s.governor_checks = 7;
  s.deadline_trips = 8;
  s.memory_trips = 9;
  s.cancel_trips = 10;
  s.parallel_workers = 11;
  s.tasks_scheduled = 12;
  s.critical_path_seconds = 0.25;
  s.scheduler_idle_seconds = 0.125;
  s.batched_scan_nodes = 13;
  s.batch_scan_seconds = 0.0625;
  RunReport report("test", "stats");
  AddAlgorithmStats(s, &report);
  std::string json = report.ToJson();
  EXPECT_TRUE(IsValidJson(json));
  for (const char* key :
       {"nodes_checked", "nodes_marked", "table_scans", "rollups",
        "freq_groups_built", "candidate_nodes", "cube_build_seconds",
        "total_seconds", "governor_checks", "deadline_trips", "memory_trips",
        "cancel_trips", "parallel_workers", "tasks_scheduled",
        "critical_path_seconds", "scheduler_idle_seconds",
        "batched_scan_nodes", "batch_scan_seconds"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

// ---------------------------------------------------------------------------
// RunReport schema (golden file)
// ---------------------------------------------------------------------------

/// Builds a fully deterministic report exercising every section.
RunReport GoldenReport() {
  RunReport report("incognito_cli", "enumerate");
  report.SetString("input", "demo.csv");
  report.SetInt("k", 2);
  report.SetInt("rows", 6);
  report.SetDouble("sample_rate", 0.5);
  report.SetBool("quick", true);

  AlgorithmStats stats;
  stats.nodes_checked = 17;
  stats.nodes_marked = 11;
  stats.table_scans = 9;
  stats.rollups = 8;
  stats.freq_groups_built = 55;
  stats.candidate_nodes = 28;
  stats.cube_build_seconds = 0.25;
  stats.total_seconds = 1.5;
  stats.governor_checks = 17;
  stats.deadline_trips = 1;
  stats.memory_trips = 0;
  stats.cancel_trips = 0;
  stats.parallel_workers = 4;
  stats.tasks_scheduled = 40;
  stats.critical_path_seconds = 0.75;
  stats.scheduler_idle_seconds = 0.5;
  stats.checkpoint_writes = 3;
  stats.checkpoint_bytes = 512;
  stats.checkpoint_write_failures = 1;
  stats.restored_iterations = 2;
  stats.restored_subsets = 6;
  stats.batched_scan_nodes = 7;
  stats.batch_scan_seconds = 0.0625;
  AddAlgorithmStats(stats, &report);
  report.SetDoubleList("worker_utilization", {0.95, 0.875});

  MetricsSnapshot metrics;
  metrics.counters["freq.scans"] = 9;
  metrics.counters["incognito.kchecks"] = 17;
  metrics.gauges["phase.kcheck_seconds"] = 0.5;
  HistogramSnapshot hist;
  hist.count = 4;
  hist.sum_ns = 7000;
  hist.max_ns = 4000;
  hist.buckets[Histogram::BucketFor(1000)] += 3;
  hist.buckets[Histogram::BucketFor(4000)] += 1;
  metrics.histograms["task.run_seconds"] = hist;
  report.AddMetrics(metrics);

  TraceRecorder recorder;  // epoch 0: absolute ns are relative ns
  recorder.Record("incognito.run", 0, 1500000000, 0);
  recorder.Record("freq.scan", 250000000, 500000000, 1);
  recorder.Record("freq.scan", 500000000, 750000000, 1);
  report.AddSpans(recorder);
  return report;
}

TEST(RunReportTest, GoldenFileSchemaIsStable) {
  std::string json = GoldenReport().ToJson();
  EXPECT_TRUE(IsValidJson(json));

  std::string golden_path =
      std::string(INCOGNITO_TEST_DATA_DIR) + "/golden_run_report.json";
  if (std::getenv("INCOGNITO_REGEN_GOLDEN") != nullptr) {
    std::ofstream regen(golden_path);
    regen << json;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << "; expected contents:\n"
                         << json;
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), json)
      << "RunReport serialization drifted from the golden schema. If the "
         "change is intentional, bump RunReport::kSchemaVersion and "
         "regenerate tests/data/golden_run_report.json with the 'actual' "
         "output below.\nactual:\n"
      << json;
}

TEST(RunReportTest, IdenticalInputsSerializeIdentically) {
  EXPECT_EQ(GoldenReport().ToJson(), GoldenReport().ToJson());
}

TEST(RunReportTest, EmptySectionsAreOmitted) {
  RunReport report("tool", "cmd");
  std::string json = report.ToJson();
  EXPECT_TRUE(IsValidJson(json));
  EXPECT_EQ(json.find("\"stats\""), std::string::npos);
  EXPECT_EQ(json.find("\"counters\""), std::string::npos);
  EXPECT_EQ(json.find("\"spans\""), std::string::npos);
  EXPECT_EQ(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 5"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace incognito
