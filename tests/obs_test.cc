// Tests for the observability layer: metrics registry semantics (handles,
// enable gating, snapshot/merge, golden JSON) and the Perfetto
// trace exporter (golden output on a hand-built trace, schema validation,
// end-to-end export of a 2-CPU scenario, and the determinism guarantee that
// metrics collection never perturbs the simulation).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_export.h"
#include "src/workloads/stress.h"

namespace tableau {
namespace {

using obs::LatencyHistogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

TEST(MetricsRegistry, HandlesAreStableAndFindOrCreate) {
  MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("a.count");
  EXPECT_EQ(counter, registry.GetCounter("a.count"));
  counter->Increment();
  counter->Increment(4);
  EXPECT_EQ(counter->value(), 5);

  obs::Gauge* gauge = registry.GetGauge("a.gauge");
  EXPECT_EQ(gauge, registry.GetGauge("a.gauge"));
  gauge->Set(2.5);
  EXPECT_DOUBLE_EQ(gauge->value(), 2.5);

  LatencyHistogram* hist = registry.GetHistogram("a.lat_ns");
  EXPECT_EQ(hist, registry.GetHistogram("a.lat_ns"));
  hist->Record(100);
  hist->Record(300);
  const obs::HistogramValue value = hist->ToValue();
  EXPECT_EQ(value.count, 2u);
  EXPECT_EQ(value.sum, 400);
  EXPECT_EQ(value.min, 100);
  EXPECT_EQ(value.max, 300);
}

TEST(MetricsRegistry, DisableGatesRecordingThroughExistingHandles) {
  MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("c");
  obs::Gauge* gauge = registry.GetGauge("g");
  LatencyHistogram* hist = registry.GetHistogram("h");
  counter->Increment();
  gauge->Set(1.0);
  hist->Record(10);

  registry.set_enabled(false);
  counter->Increment(100);
  gauge->Set(99.0);
  hist->Record(1000);
  EXPECT_EQ(counter->value(), 1);
  EXPECT_DOUBLE_EQ(gauge->value(), 1.0);
  EXPECT_EQ(hist->ToValue().count, 1u);

  registry.set_enabled(true);
  counter->Increment();
  EXPECT_EQ(counter->value(), 2);
}

TEST(MetricsRegistry, HistogramNegativeValuesClampToZero) {
  MetricsRegistry registry;
  LatencyHistogram* hist = registry.GetHistogram("h");
  hist->Record(-5);
  const obs::HistogramValue value = hist->ToValue();
  EXPECT_EQ(value.count, 1u);
  EXPECT_EQ(value.sum, 0);
  EXPECT_EQ(value.min, 0);
  EXPECT_EQ(value.max, 0);
}

TEST(LatencyHistogram, StandAloneRecordsLikeARegistryHandle) {
  // A default-constructed histogram has no registry and always records; its
  // export equals the snapshot of a registry handle fed the same samples,
  // including a negative sample clamped to zero.
  LatencyHistogram stand_alone;
  MetricsRegistry registry;
  LatencyHistogram* handle = registry.GetHistogram("h");
  EXPECT_EQ(stand_alone.ToValue(), obs::HistogramValue{});
  for (const TimeNs sample : {TimeNs{-7}, TimeNs{0}, TimeNs{5}, TimeNs{1000},
                              TimeNs{5}, 3 * kSecond}) {
    stand_alone.Record(sample);
    handle->Record(sample);
  }
  const obs::HistogramValue value = stand_alone.ToValue();
  EXPECT_EQ(value, registry.Snapshot().values.at("h").hist);
  EXPECT_EQ(value.count, 6u);
  EXPECT_EQ(value.min, 0);
  EXPECT_EQ(value.max, 3 * kSecond);
  EXPECT_EQ(value.sum, 3 * kSecond + 1010);
  ASSERT_FALSE(value.buckets.empty());
  EXPECT_EQ(value.buckets.front(), std::make_pair(0, std::uint64_t{2}));
}

TEST(MetricsRegistry, BucketUpperEdgesArePowersOfTwoMinusOne) {
  EXPECT_EQ(LatencyHistogram::BucketUpperEdge(0), 0);
  EXPECT_EQ(LatencyHistogram::BucketUpperEdge(1), 1);
  EXPECT_EQ(LatencyHistogram::BucketUpperEdge(4), 15);
  EXPECT_EQ(LatencyHistogram::BucketUpperEdge(10), 1023);
}

TEST(MetricsSnapshot, MergeAddsCountersAndHistogramsMaxesGauges) {
  MetricsRegistry a;
  a.GetCounter("c")->Increment(3);
  a.GetGauge("g")->Set(5.0);
  a.GetHistogram("h")->Record(10);
  MetricsRegistry b;
  b.GetCounter("c")->Increment(4);
  b.GetGauge("g")->Set(2.0);
  b.GetHistogram("h")->Record(20);
  b.GetCounter("only_b")->Increment();

  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.values.at("c").counter, 7);
  EXPECT_DOUBLE_EQ(merged.values.at("g").gauge, 5.0);  // max, order-independent
  EXPECT_EQ(merged.values.at("h").hist.count, 2u);
  EXPECT_EQ(merged.values.at("h").hist.sum, 30);
  EXPECT_EQ(merged.values.at("h").hist.min, 10);
  EXPECT_EQ(merged.values.at("h").hist.max, 20);
  EXPECT_EQ(merged.values.at("only_b").counter, 1);
}

// Golden output: a hand-built registry renders to exactly this JSON. If the
// layout changes intentionally, bump kSchemaVersion and update the golden.
TEST(MetricsSnapshot, JsonGoldenForHandBuiltSnapshot) {
  MetricsRegistry registry;
  registry.GetCounter("sim.events")->Increment(12345);
  registry.GetGauge("sim.pool_size")->Set(17.25);
  LatencyHistogram* hist = registry.GetHistogram("sched.latency_ns");
  hist->Record(0);
  hist->Record(1);
  hist->Record(1000);
  hist->Record(1'000'000);

  const std::string expected = R"({
  "schema_version": "1.0",
  "counters": {
    "sim.events": 12345
  },
  "gauges": {
    "sim.pool_size": 17.25
  },
  "histograms": {
    "sched.latency_ns": {"count": 4, "sum": 1001001, "min": 0, "max": 1000000, "buckets": [[0, 1], [1, 1], [1023, 1], [1048575, 1]]}
  }
})";
  EXPECT_EQ(registry.Snapshot().ToJson(), expected);
}

TEST(MetricsSnapshot, ToJsonEmitsSchemaVersion) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment();
  const std::string json = registry.Snapshot().ToJson();
  const std::string expected =
      std::string("\"schema_version\": \"") + obs::kSchemaVersion + "\"";
  EXPECT_NE(json.find(expected), std::string::npos) << json;
}

TEST(MetricsSnapshot, CsvListsEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment(2);
  registry.GetHistogram("h")->Record(100);
  const std::string csv = registry.Snapshot().ToCsv();
  EXPECT_NE(csv.find("counter,c"), std::string::npos) << csv;
  EXPECT_NE(csv.find("histogram,h"), std::string::npos) << csv;
}

// Golden output: a hand-built two-CPU trace renders to exactly this JSON.
// If the exporter's format changes intentionally, update the golden below —
// the failure message prints the actual output.
TEST(TraceExport, GoldenPerfettoJsonForHandBuiltTrace) {
  TraceBuffer trace(16);
  trace.Record(1000, TraceEvent::kWakeup, 0, 1);
  trace.Record(2000, TraceEvent::kDispatch, 0, 1);
  trace.Record(2500, TraceEvent::kDispatch, 1, 2, /*second_level=*/1);
  trace.Record(3000, TraceEvent::kTableSwitch, 0, kIdleVcpu, /*generation=*/7);
  trace.Record(5000, TraceEvent::kDeschedule, 0, 1);
  trace.Record(6000, TraceEvent::kBlock, 1, 2);

  obs::PerfettoExportOptions options;
  options.process_name = "golden";
  options.vcpu_names[1] = "vantage";
  options.vcpu_names[2] = "bg";
  const std::string json = obs::TraceToPerfettoJson(trace, 2, options);

  const std::string expected = R"({
  "displayTimeUnit": "ns",
  "traceEvents": [
    {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "golden"}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "pCPU 0"}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2, "args": {"name": "pCPU 1"}},
    {"name": "wakeup vantage", "cat": "event", "ph": "i", "s": "t", "ts": 1.000, "pid": 1, "tid": 1},
    {"name": "table switch", "cat": "event", "ph": "i", "s": "t", "ts": 3.000, "pid": 1, "tid": 1, "args": {"generation": 7}},
    {"name": "vantage", "cat": "service", "ph": "X", "ts": 2.000, "dur": 3.000, "pid": 1, "tid": 1, "args": {"vcpu": 1, "second_level": false}},
    {"name": "bg", "cat": "service", "ph": "X", "ts": 2.500, "dur": 3.500, "pid": 1, "tid": 2, "args": {"vcpu": 2, "second_level": true}}
  ]
}
)";
  EXPECT_EQ(json, expected);

  std::string error;
  EXPECT_TRUE(obs::ValidatePerfettoJson(json, &error)) << error;
}

TEST(TraceExport, WrappedRingEmitsTruncatedSlices) {
  // Capacity 2: the dispatch at t=100 is overwritten, leaving only the
  // deschedule at t=300 and an idle marker. The exporter must report the
  // visible tail as a truncated slice, not drop or invent an interval.
  TraceBuffer trace(2);
  trace.Record(100, TraceEvent::kDispatch, 0, 5);
  trace.Record(300, TraceEvent::kDeschedule, 0, 5);
  trace.Record(400, TraceEvent::kIdle, 0, kIdleVcpu);
  ASSERT_GT(trace.dropped(), 0u);

  const std::string json = obs::TraceToPerfettoJson(trace, 1, {});
  EXPECT_NE(json.find("\"truncated\": true"), std::string::npos) << json;
  std::string error;
  EXPECT_TRUE(obs::ValidatePerfettoJson(json, &error)) << error;
}

TEST(TraceExport, ValidatorRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(obs::ValidatePerfettoJson("not json", &error));
  EXPECT_FALSE(obs::ValidatePerfettoJson("[]", &error));
  EXPECT_FALSE(obs::ValidatePerfettoJson(R"({"traceEvents": 3})", &error));
  // Complete slice without a dur.
  EXPECT_FALSE(obs::ValidatePerfettoJson(
      R"({"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "ts": 1.0}]})",
      &error));
  // Negative dur.
  EXPECT_FALSE(obs::ValidatePerfettoJson(
      R"({"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "ts": 1.0, "dur": -2}]})",
      &error));
  // Missing ph.
  EXPECT_FALSE(obs::ValidatePerfettoJson(
      R"({"traceEvents": [{"name": "x", "pid": 1, "ts": 1.0}]})", &error));
}

// --- End-to-end: scenario runs export valid JSON and metrics stay inert. ---

Scenario RunTracedScenario(bool metrics_enabled) {
  ScenarioConfig config;
  config.scheduler = SchedKind::kTableau;
  config.capped = true;
  config.guest_cpus = 2;
  config.cores_per_socket = 1;
  Scenario scenario = BuildScenario(config);
  scenario.machine->metrics().set_enabled(metrics_enabled);
  scenario.machine->trace().set_enabled(true);
  scenario.vantage->EnableInstrumentation();
  CpuHogWorkload loop(scenario.machine, scenario.vantage);
  loop.Start(0);
  BackgroundWorkloads background;
  AttachBackground(scenario, Background::kIo, 1, background);
  scenario.machine->Start();
  scenario.machine->RunFor(100 * kMillisecond);
  return scenario;
}

TEST(TraceExport, TwoCpuScenarioExportsValidPerfettoJson) {
  const Scenario scenario = RunTracedScenario(/*metrics_enabled=*/true);
  ASSERT_GT(scenario.machine->trace().size(), 0u);

  obs::PerfettoExportOptions options;
  for (const Vcpu* vcpu : scenario.vcpus) {
    options.vcpu_names[vcpu->id()] = vcpu->params().name;
  }
  const std::string json = obs::TraceToPerfettoJson(
      scenario.machine->trace(), scenario.machine->num_cpus(), options);
  std::string error;
  EXPECT_TRUE(obs::ValidatePerfettoJson(json, &error)) << error;

  // The scenario's metrics landed in the machine registry, including the
  // planner phase timings wired through ScenarioConfig.
  const MetricsSnapshot snapshot = scenario.machine->SnapshotMetrics();
  EXPECT_GT(snapshot.values.count("machine.context_switches"), 0u);
  EXPECT_GT(snapshot.values.count("planner.plan_total_ns"), 0u);
}

TEST(TraceExport, MetricsCollectionDoesNotPerturbSimulation) {
  const Scenario with_metrics = RunTracedScenario(/*metrics_enabled=*/true);
  const Scenario without_metrics = RunTracedScenario(/*metrics_enabled=*/false);
  EXPECT_EQ(TraceFingerprint(*with_metrics.machine),
            TraceFingerprint(*without_metrics.machine));
  EXPECT_EQ(with_metrics.machine->sim().events_executed(),
            without_metrics.machine->sim().events_executed());
}

// --- Percentile refinement: rank interpolation within the winning bucket ---

obs::HistogramValue HistOf(std::initializer_list<std::int64_t> samples) {
  MetricsRegistry registry;
  LatencyHistogram* hist = registry.GetHistogram("h");
  for (const std::int64_t sample : samples) {
    hist->Record(sample);
  }
  return registry.Snapshot().values.at("h").hist;
}

TEST(HistogramPercentile, SingleSampleIsExactAtEveryQuantile) {
  const obs::HistogramValue h = HistOf({100});
  // Interpolation alone would report a point inside bucket [64, 127]; the
  // [min, max] clamp makes the degenerate case exact.
  EXPECT_EQ(h.Percentile(0.01), 100);
  EXPECT_EQ(h.Percentile(0.5), 100);
  EXPECT_EQ(h.Percentile(0.99), 100);
  EXPECT_EQ(h.Percentile(1.0), 100);
}

TEST(HistogramPercentile, SmallSamplePinnedValues) {
  const obs::HistogramValue h = HistOf({0, 1, 1000});
  // rank(ceil(0.5*3)) = 2 -> bucket index 1 (value 1), degenerate => exact.
  EXPECT_EQ(h.Percentile(0.5), 1);
  // rank 3 -> bucket of 1000 ([512, 1023]); clamped to max = 1000.
  EXPECT_EQ(h.Percentile(0.99), 1000);
  EXPECT_EQ(h.Percentile(0.0), 0);   // rank clamps to 1 -> min.
  EXPECT_EQ(h.Percentile(2.0), 1000);  // q >= 1 returns the exact max.
}

TEST(HistogramPercentile, InterpolationMovesWithRankInsideBucket) {
  // 64 samples, all landing in bucket [64, 127]. The interpolated estimate
  // must be monotone in q and bounded by the bucket (error <= bucket width).
  MetricsRegistry registry;
  LatencyHistogram* hist = registry.GetHistogram("h");
  for (int i = 0; i < 64; ++i) {
    hist->Record(64 + i);
  }
  const obs::HistogramValue h = registry.Snapshot().values.at("h").hist;
  const std::int64_t p25 = h.Percentile(0.25);
  const std::int64_t p50 = h.Percentile(0.5);
  const std::int64_t p75 = h.Percentile(0.75);
  EXPECT_LT(p25, p50);
  EXPECT_LT(p50, p75);
  EXPECT_GE(p25, h.min);
  EXPECT_LE(p75, h.max);
  // True p50 is 95-96; the winning bucket is [64, 127] so the estimate may
  // be off by at most that width.
  EXPECT_NEAR(static_cast<double>(p50), 95.5, 64.0);
}

// --- CSV escaping: names with commas/quotes survive a round trip ---

// Splits one CSV row (without its trailing newline) back into fields,
// undoing CsvEscapeField.
std::vector<std::string> SplitCsvRow(const std::string& row) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const char c = row[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < row.size() && row[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"' && field.empty()) {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

TEST(CsvEscape, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(obs::CsvEscapeField("plain.name"), "plain.name");
  EXPECT_EQ(obs::CsvEscapeField("a,b"), "\"a,b\"");
  EXPECT_EQ(obs::CsvEscapeField("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(obs::CsvEscapeField("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvEscape, SplitCsvRowInvertsEscaping) {
  const std::vector<std::string> fields = {"plain", "with,comma", "with \"quote\"",
                                           "", "both,\"x\""};
  std::string row;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) {
      row += ",";
    }
    row += obs::CsvEscapeField(fields[i]);
  }
  EXPECT_EQ(SplitCsvRow(row), fields);
}

TEST(MetricsSnapshot, ToCsvEscapesAwkwardMetricNames) {
  MetricsRegistry registry;
  registry.GetCounter("weird,\"name\"")->Increment(7);
  registry.GetCounter("normal.name")->Increment(1);
  const std::string csv = registry.Snapshot().ToCsv();

  // Re-parse every row; the awkward name must come back verbatim.
  bool found = false;
  std::size_t start = 0;
  while (start < csv.size()) {
    std::size_t end = csv.find('\n', start);
    if (end == std::string::npos) {
      end = csv.size();
    }
    const std::vector<std::string> fields =
        SplitCsvRow(csv.substr(start, end - start));
    if (fields.size() > 1 && fields[1] == "weird,\"name\"") {
      found = true;
    }
    start = end + 1;
  }
  EXPECT_TRUE(found) << csv;
}

// --- Merge/Delta edge cases ---

TEST(MetricsSnapshot, MergeWithEmptySnapshotsIsIdentity) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment(3);
  registry.GetHistogram("h")->Record(10);
  const MetricsSnapshot base = registry.Snapshot();

  MetricsSnapshot left;  // empty + X == X
  left.Merge(base);
  EXPECT_EQ(left, base);

  MetricsSnapshot right = base;  // X + empty == X
  right.Merge(MetricsSnapshot{});
  EXPECT_EQ(right, base);

  MetricsSnapshot both;  // empty + empty == empty
  both.Merge(MetricsSnapshot{});
  EXPECT_TRUE(both.values.empty());
}

TEST(MetricsSnapshot, MergeDisjointSetsIsUnion) {
  MetricsRegistry a;
  a.GetCounter("only_a")->Increment(1);
  MetricsRegistry b;
  b.GetGauge("only_b")->Set(2.0);

  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.values.size(), 2u);
  EXPECT_EQ(merged.values.at("only_a").counter, 1);
  EXPECT_DOUBLE_EQ(merged.values.at("only_b").gauge, 2.0);
}

TEST(MetricsSnapshot, MergeKindConflictKeepsFirstRegistration) {
  MetricsRegistry a;
  a.GetCounter("x")->Increment(5);
  MetricsRegistry b;
  b.GetGauge("x")->Set(99.0);

  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.values.at("x").kind, obs::MetricKind::kCounter);
  EXPECT_EQ(merged.values.at("x").counter, 5);
}

TEST(MetricsSnapshot, MergeIsAssociativeAndCommutativeUnderShardReordering) {
  // Three "shards" with overlapping metrics; every merge order must agree.
  MetricsRegistry shard0;
  shard0.GetCounter("c")->Increment(1);
  shard0.GetHistogram("h")->Record(8);
  shard0.GetGauge("g")->Set(1.0);
  MetricsRegistry shard1;
  shard1.GetCounter("c")->Increment(2);
  shard1.GetHistogram("h")->Record(600);
  MetricsRegistry shard2;
  shard2.GetGauge("g")->Set(4.0);
  shard2.GetHistogram("h")->Record(8);
  const MetricsSnapshot s0 = shard0.Snapshot();
  const MetricsSnapshot s1 = shard1.Snapshot();
  const MetricsSnapshot s2 = shard2.Snapshot();

  MetricsSnapshot forward = s0;
  forward.Merge(s1);
  forward.Merge(s2);

  MetricsSnapshot reversed = s2;
  reversed.Merge(s1);
  reversed.Merge(s0);

  MetricsSnapshot grouped = s1;  // (s1 + s2) folded into s0's copy.
  grouped.Merge(s2);
  MetricsSnapshot outer = s0;
  outer.Merge(grouped);

  EXPECT_EQ(forward, reversed);
  EXPECT_EQ(forward, outer);
  EXPECT_EQ(forward.values.at("c").counter, 3);
  EXPECT_DOUBLE_EQ(forward.values.at("g").gauge, 4.0);
  EXPECT_EQ(forward.values.at("h").hist.count, 3u);
}

}  // namespace
}  // namespace tableau
