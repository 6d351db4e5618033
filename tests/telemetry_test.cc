// Tests for the windowed telemetry layer: TimeSeriesRecorder ring/window
// semantics and order-independent merge, the per-vCPU window views the
// adaptive controller reads, the causal LatencyAttributor's exact
// time-partitioning (scripted and end-to-end across all five schedulers),
// the per-VM SloTracker's window/streak/burst logic, Perfetto flow-event
// export, and — most load-bearing — the purity guarantee: a run with
// telemetry attached is trace-fingerprint-identical to one without.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/attribution.h"
#include "src/obs/slo.h"
#include "src/obs/telemetry.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace_export.h"
#include "src/workloads/guest.h"
#include "src/workloads/ping.h"

namespace tableau {
namespace {

using obs::AttributedInterval;
using obs::LatencyAttributor;
using obs::LatencyBreakdown;
using obs::LatencyComponent;
using obs::SloConfig;
using obs::SloTracker;
using obs::SloVerdict;
using obs::SlipSplit;
using obs::Telemetry;
using obs::TimeSeriesRecorder;
using obs::TimeSeriesSnapshot;
using obs::TimeSeriesWindow;

// --- TimeSeriesRecorder: windows, ranges, eviction, merge ---

TEST(TimeSeriesRecorder, ObserveAggregatesIntoWindows) {
  TimeSeriesRecorder recorder({/*window_ns=*/100, /*window_capacity=*/8});
  const auto id = recorder.DefineSeries("s");
  recorder.Observe(id, 10, 5);
  recorder.Observe(id, 50, 7);
  recorder.Observe(id, 150, -2);

  const TimeSeriesSnapshot snapshot = recorder.Snapshot();
  const auto& windows = snapshot.series.at("s").windows;
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].start, 0);
  EXPECT_EQ(windows[0].count, 2);
  EXPECT_EQ(windows[0].sum, 12);
  EXPECT_EQ(windows[0].min, 5);
  EXPECT_EQ(windows[0].max, 7);
  EXPECT_EQ(windows[1].start, 100);
  EXPECT_EQ(windows[1].count, 1);
  EXPECT_EQ(windows[1].sum, -2);
}

TEST(TimeSeriesRecorder, AddRangeSplitsAcrossWindowBoundaries) {
  TimeSeriesRecorder recorder({/*window_ns=*/100, /*window_capacity=*/8});
  const auto id = recorder.DefineSeries("busy");
  recorder.AddRange(id, 50, 250);  // 50 in w0, 100 in w1, 50 in w2.

  const auto snapshot = recorder.Snapshot();
  const auto& windows = snapshot.series.at("busy").windows;
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].sum, 50);
  EXPECT_EQ(windows[1].sum, 100);
  EXPECT_EQ(windows[2].sum, 50);
  std::int64_t total = 0;
  for (const TimeSeriesWindow& window : windows) {
    total += window.sum;
  }
  EXPECT_EQ(total, 200);  // Exactly the range length: nothing lost or doubled.
}

TEST(TimeSeriesRecorder, RingEvictsOldWindowsAndCountsLateSamples) {
  TimeSeriesRecorder recorder({/*window_ns=*/100, /*window_capacity=*/4});
  const auto id = recorder.DefineSeries("s");
  recorder.Observe(id, 10, 1);    // Window 0.
  recorder.Observe(id, 950, 2);   // Window 9: evicts everything before 6.

  TimeSeriesSnapshot snapshot = recorder.Snapshot();
  const auto& data = snapshot.series.at("s");
  ASSERT_EQ(data.windows.size(), 4u);
  EXPECT_EQ(data.windows.front().start, 600);
  EXPECT_EQ(data.windows.back().start, 900);
  EXPECT_EQ(data.windows.back().sum, 2);
  EXPECT_EQ(data.dropped_windows, 1u);  // Only window 0 had been opened.

  recorder.Observe(id, 10, 3);  // Behind the ring now: counted, not recorded.
  EXPECT_EQ(recorder.Snapshot().series.at("s").late_samples, 1u);
}

TEST(TimeSeriesSnapshot, MergeIsOrderIndependent) {
  TimeSeriesRecorder a({/*window_ns=*/100, /*window_capacity=*/8});
  const auto ida = a.DefineSeries("shared");
  a.Observe(ida, 10, 5);
  a.Observe(ida, 150, 1);
  const auto only_a = a.DefineSeries("only_a");
  a.Observe(only_a, 10, 9);

  TimeSeriesRecorder b({/*window_ns=*/100, /*window_capacity=*/8});
  const auto idb = b.DefineSeries("shared");
  b.Observe(idb, 20, 3);
  b.Observe(idb, 250, 7);

  TimeSeriesSnapshot ab = a.Snapshot();
  ab.Merge(b.Snapshot());
  TimeSeriesSnapshot ba = b.Snapshot();
  ba.Merge(a.Snapshot());
  EXPECT_EQ(ab, ba);

  const auto& shared = ab.series.at("shared").windows;
  ASSERT_EQ(shared.size(), 3u);  // Windows 0 (merged), 1 (a only), 2 (b only).
  EXPECT_EQ(shared[0].count, 2);
  EXPECT_EQ(shared[0].sum, 8);
  EXPECT_EQ(shared[0].min, 3);
  EXPECT_EQ(shared[0].max, 5);
  EXPECT_EQ(shared[1].sum, 1);
  EXPECT_EQ(shared[2].sum, 7);
  EXPECT_EQ(ab.series.count("only_a"), 1u);
}

TEST(TimeSeriesSnapshot, JsonAndCsvExportCarrySchemaAndData) {
  TimeSeriesRecorder recorder({/*window_ns=*/100, /*window_capacity=*/8});
  const auto id = recorder.DefineSeries("a,b");  // Awkward CSV name.
  recorder.Observe(id, 10, 4);

  const TimeSeriesSnapshot snapshot = recorder.Snapshot();
  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"schema_version\": \"1.0\""), std::string::npos);
  EXPECT_NE(json.find("\"window_ns\": 100"), std::string::npos);

  const std::string csv = snapshot.ToCsv();
  EXPECT_NE(csv.find("series,window_start_ns,count,sum,min,max,mean\n"),
            std::string::npos);
  EXPECT_NE(csv.find("\"a,b\",0,1,4,4,4,4\n"), std::string::npos);
}

// --- Telemetry window views: the adaptive controller's hold signal ---

TEST(Telemetry, LastWindowViewDistinguishesNoDataFromZero) {
  // Host::AdaptTick reads this view: a vCPU that was blocked through a whole
  // window must read as "no data", never as a window claiming zero demand,
  // or the controller would shrink a briefly-idle VM to its floor on the
  // strength of silence.
  Telemetry::Config config;
  config.window_ns = 100;
  Telemetry telemetry(config);
  telemetry.Bind(/*num_cpus=*/1, /*num_vcpus=*/2, /*table_driven=*/true, /*start=*/0);

  // vCPU 0 stays blocked; vCPU 1 waits [10, 20), runs [20, 70), then blocks.
  telemetry.OnWakeup(1, 10);
  telemetry.OnDispatch(1, 20);
  telemetry.OnServiceRange(1, /*cpu=*/0, 20, 70);
  telemetry.OnBlock(1, 70);
  telemetry.OnCadenceSample(100, /*runnable_waiting=*/0, /*running=*/0);

  const Telemetry::VcpuWindowView& idle = telemetry.LastWindowView(0);
  EXPECT_FALSE(idle.has_data);
  EXPECT_EQ(idle.demand_ns, 0);
  EXPECT_EQ(idle.supply_ns, 0);
  const Telemetry::VcpuWindowView& ran = telemetry.LastWindowView(1);
  EXPECT_TRUE(ran.has_data);
  EXPECT_EQ(ran.supply_ns, 50);
  EXPECT_EQ(ran.demand_ns, 60);  // 10 ns in the wake queue + 50 ns of service.

  // The next window, blocked throughout, is "no data" again: the previous
  // window's activity does not carry over.
  telemetry.OnCadenceSample(200, 0, 0);
  EXPECT_FALSE(telemetry.LastWindowView(1).has_data);
  EXPECT_EQ(telemetry.LastWindowView(1).supply_ns, 0);
}

// --- LatencyAttributor: scripted exactness ---

TEST(LatencyAttributor, ScriptedTransitionsPartitionTimeExactly) {
  LatencyAttributor attributor;
  attributor.Bind(/*num_vcpus=*/1, /*table_driven=*/true, /*start=*/0);

  AttributedInterval interval = attributor.OnWakeup(0, 100);
  EXPECT_EQ(interval.component, LatencyComponent::kBlocked);
  EXPECT_EQ(interval.from, 0);
  EXPECT_EQ(interval.to, 100);

  interval = attributor.OnDispatch(0, 250);
  EXPECT_EQ(interval.component, LatencyComponent::kWakeQueue);
  EXPECT_EQ(interval.duration(), 150);

  interval = attributor.OnDeschedule(0, 400);
  EXPECT_EQ(interval.component, LatencyComponent::kService);
  EXPECT_EQ(interval.duration(), 150);
  EXPECT_EQ(attributor.StateOf(0), LatencyComponent::kBlackout);

  interval = attributor.OnDispatch(0, 600);
  EXPECT_EQ(interval.component, LatencyComponent::kBlackout);
  EXPECT_EQ(interval.duration(), 200);

  interval = attributor.OnBlock(0, 700);
  EXPECT_EQ(interval.component, LatencyComponent::kService);
  EXPECT_EQ(interval.duration(), 100);

  const LatencyBreakdown totals = attributor.TotalsAt(0, 700);
  EXPECT_EQ(totals[LatencyComponent::kBlocked], 100);
  EXPECT_EQ(totals[LatencyComponent::kWakeQueue], 150);
  EXPECT_EQ(totals[LatencyComponent::kService], 250);
  EXPECT_EQ(totals[LatencyComponent::kBlackout], 200);
  EXPECT_EQ(totals.Total(), 700);  // Every nanosecond in exactly one bucket.

  // The difference of two captures telescopes to the elapsed time.
  const LatencyBreakdown at250 = attributor.TotalsAt(0, 250);
  EXPECT_EQ((totals - at250).Total(), 450);
}

TEST(LatencyAttributor, WorkConservingDescheduleIsPreempt) {
  LatencyAttributor attributor;
  attributor.Bind(1, /*table_driven=*/false, 0);
  attributor.OnWakeup(0, 10);
  attributor.OnDispatch(0, 20);
  attributor.OnDeschedule(0, 50);
  EXPECT_EQ(attributor.StateOf(0), LatencyComponent::kPreempt);
  const LatencyBreakdown totals = attributor.TotalsAt(0, 80);
  EXPECT_EQ(totals[LatencyComponent::kPreempt], 30);
  EXPECT_EQ(totals.Total(), 80);
}

TEST(LatencyAttributor, WakeupWhileRunnableIsNoOp) {
  LatencyAttributor attributor;
  attributor.Bind(1, true, 0);
  attributor.OnWakeup(0, 10);
  const AttributedInterval repeat = attributor.OnWakeup(0, 50);
  EXPECT_TRUE(repeat.empty());
  EXPECT_EQ(attributor.StateOf(0), LatencyComponent::kWakeQueue);
  // The wait keeps accruing from the first wakeup.
  EXPECT_EQ(attributor.TotalsAt(0, 100)[LatencyComponent::kWakeQueue], 90);
}

TEST(LatencyAttributor, SlipReattributionSplitsTrailingWait) {
  LatencyAttributor attributor;
  attributor.Bind(1, true, 0);
  attributor.OnWakeup(0, 100);

  // Waited 200 ns in the wake queue; the switch was 50 ns late, so the
  // trailing 50 ns were the slip's fault.
  const SlipSplit split = attributor.ReattributeSlip(0, 300, 50);
  EXPECT_EQ(split.head.component, LatencyComponent::kWakeQueue);
  EXPECT_EQ(split.head.from, 100);
  EXPECT_EQ(split.head.to, 250);
  EXPECT_EQ(split.tail.component, LatencyComponent::kSwitchSlip);
  EXPECT_EQ(split.tail.from, 250);
  EXPECT_EQ(split.tail.to, 300);

  const LatencyBreakdown totals = attributor.TotalsAt(0, 300);
  EXPECT_EQ(totals[LatencyComponent::kWakeQueue], 150);
  EXPECT_EQ(totals[LatencyComponent::kSwitchSlip], 50);
  EXPECT_EQ(totals.Total(), 300);  // Reattribution moves time, never creates it.

  // Slip larger than the wait: the whole wait becomes slip, not more.
  LatencyAttributor fresh;
  fresh.Bind(1, true, 0);
  fresh.OnWakeup(0, 100);
  const SlipSplit all = fresh.ReattributeSlip(0, 120, 500);
  EXPECT_TRUE(all.head.empty());
  EXPECT_EQ(all.tail.duration(), 20);

  // A running vCPU is untouched.
  LatencyAttributor running;
  running.Bind(1, true, 0);
  running.OnWakeup(0, 10);
  running.OnDispatch(0, 20);
  const SlipSplit none = running.ReattributeSlip(0, 100, 50);
  EXPECT_TRUE(none.head.empty());
  EXPECT_TRUE(none.tail.empty());
}

// --- SloTracker: windows, streaks, bursts ---

SloConfig SmallSlo() {
  SloConfig config;
  config.target_latency_ns = 10;
  config.target_quantile = 0.9;
  config.miss_budget = 0.25;
  config.burst_streak_windows = 2;
  config.window_ns = 100;
  return config;
}

TEST(SloTracker, AttainmentAndBudgetAccounting) {
  SloTracker tracker;
  tracker.Bind(1, SmallSlo());
  tracker.Record(0, 10, 5);    // Hit.
  tracker.Record(0, 20, 5);    // Hit.
  tracker.Record(0, 30, 50);   // Miss.
  tracker.Record(0, 40, 5);    // Hit.

  const SloVerdict verdict = tracker.VerdictFor(0);
  EXPECT_EQ(verdict.requests, 4u);
  EXPECT_EQ(verdict.misses, 1u);
  EXPECT_DOUBLE_EQ(verdict.attainment, 0.75);
  EXPECT_FALSE(verdict.slo_met);  // 0.75 < 0.9 target quantile.
  EXPECT_DOUBLE_EQ(verdict.burn_rate, 1.0);  // 25% misses / 25% budget.
  EXPECT_EQ(verdict.windows_closed, 1u);  // The open window, closed for view.
  EXPECT_EQ(verdict.windows_over_budget, 0u);  // 1/4 == budget, not over.
}

TEST(SloTracker, ConsecutiveOverBudgetWindowsDetectBurst) {
  SloTracker tracker;
  tracker.Bind(1, SmallSlo());
  tracker.Record(0, 10, 100);   // Window 0: 1/1 missed — over budget.
  tracker.Record(0, 110, 100);  // Window 1: over budget; closes window 0.
  tracker.Record(0, 210, 5);    // Window 2: in budget; closes window 1.

  const SloVerdict verdict = tracker.VerdictFor(0);
  EXPECT_EQ(verdict.windows_closed, 3u);
  EXPECT_EQ(verdict.windows_over_budget, 2u);
  EXPECT_EQ(verdict.longest_streak, 2u);
  EXPECT_EQ(verdict.current_streak, 0u);
  EXPECT_TRUE(verdict.burst_detected);  // Streak reached burst_streak_windows.
}

TEST(SloTracker, EmptyGapWindowsResetTheStreak) {
  SloTracker tracker;
  tracker.Bind(1, SmallSlo());
  tracker.Record(0, 10, 100);   // Window 0: over budget.
  tracker.Record(0, 510, 100);  // Window 5: gap of 4 empty windows between.

  const SloVerdict verdict = tracker.VerdictFor(0);
  // Window 0 and window 5 were each over budget, but the empty gap broke the
  // consecutive run: longest streak stays 1, no burst.
  EXPECT_EQ(verdict.windows_over_budget, 2u);
  EXPECT_EQ(verdict.longest_streak, 1u);
  EXPECT_FALSE(verdict.burst_detected);
}

TEST(SloTracker, EmptyVmReportsPerfectAttainment) {
  SloTracker tracker;
  tracker.Bind(2, SmallSlo());
  const SloVerdict verdict = tracker.VerdictFor(1);
  EXPECT_EQ(verdict.requests, 0u);
  EXPECT_DOUBLE_EQ(verdict.attainment, 1.0);
  EXPECT_TRUE(verdict.slo_met);
  EXPECT_FALSE(verdict.burst_detected);
}

// --- End-to-end: telemetry on a live scenario ---

constexpr TimeNs kRunFor = 400 * kMillisecond;

struct TelemetryRun {
  Scenario scenario;
  std::unique_ptr<Telemetry> telemetry;
  std::unique_ptr<WorkQueueGuest> guest;
  std::unique_ptr<PingTraffic> ping;
  BackgroundWorkloads background;
  std::uint64_t spans_checked = 0;
  std::uint64_t span_mismatches = 0;
};

// A small Fig. 6-style cell with ping traffic into the vantage VM. When
// `with_telemetry`, every completed span is checked for the exact-sum
// identity: machine components sum to exactly (end - start).
TelemetryRun RunPingScenario(SchedKind kind, bool with_telemetry,
                             bool telemetry_enabled = true) {
  TelemetryRun run;
  ScenarioConfig config;
  config.scheduler = kind;
  // Credit2 rejects caps and RTDS requires them (factory.cc); everyone else
  // runs the paper's capped configuration.
  config.capped = kind != SchedKind::kCredit2;
  config.guest_cpus = 2;
  config.cores_per_socket = 1;
  run.scenario = BuildScenario(config);
  run.scenario.machine->trace().set_enabled(true);

  if (with_telemetry) {
    Telemetry::Config telemetry_config;
    telemetry_config.window_ns = 10 * kMillisecond;
    run.telemetry = std::make_unique<Telemetry>(telemetry_config);
    run.telemetry->set_enabled(telemetry_enabled);
    AttachTelemetry(run.scenario, run.telemetry.get());
    run.telemetry->set_span_observer(
        [&run](int vcpu, TimeNs start, TimeNs end,
               const LatencyBreakdown& breakdown) {
          (void)vcpu;
          ++run.spans_checked;
          const TimeNs machine_time =
              breakdown.Total() - breakdown[LatencyComponent::kNetwork];
          if (machine_time != end - start) {
            ++run.span_mismatches;
          }
        });
  }

  run.guest = std::make_unique<WorkQueueGuest>(run.scenario.machine,
                                               run.scenario.vantage);
  PingTraffic::Config ping_config;
  ping_config.threads = 4;
  ping_config.pings_per_thread = 200;
  ping_config.max_spacing = 4 * kMillisecond;
  run.ping = std::make_unique<PingTraffic>(run.scenario.machine,
                                           run.guest.get(), ping_config);
  if (with_telemetry) {
    run.ping->AttachTelemetry(run.telemetry.get());
  }
  run.ping->Start(0);
  AttachBackground(run.scenario, Background::kIo, 1, run.background);

  run.scenario.machine->Start();
  run.scenario.machine->RunFor(kRunFor);
  return run;
}

constexpr SchedKind kAllSchedulers[] = {SchedKind::kCredit, SchedKind::kCredit2,
                                        SchedKind::kRtds, SchedKind::kTableau,
                                        SchedKind::kCfs};

TEST(TelemetryEndToEnd, SpanComponentsSumExactlyUnderEveryScheduler) {
  for (const SchedKind kind : kAllSchedulers) {
    const TelemetryRun run = RunPingScenario(kind, /*with_telemetry=*/true);
    EXPECT_GT(run.spans_checked, 100u) << SchedKindName(kind);
    EXPECT_EQ(run.span_mismatches, 0u)
        << SchedKindName(kind)
        << ": attribution components failed the exact-sum identity";
    EXPECT_EQ(run.ping->span_overflows(), 0u) << SchedKindName(kind);
  }
}

TEST(TelemetryEndToEnd, AttachedTelemetryIsAPureObserver) {
  for (const SchedKind kind : kAllSchedulers) {
    const TelemetryRun with = RunPingScenario(kind, /*with_telemetry=*/true);
    const TelemetryRun without = RunPingScenario(kind, /*with_telemetry=*/false);
    EXPECT_EQ(TraceFingerprint(*with.scenario.machine),
              TraceFingerprint(*without.scenario.machine))
        << SchedKindName(kind) << ": telemetry perturbed the simulation";
    EXPECT_EQ(with.scenario.machine->sim().events_executed(),
              without.scenario.machine->sim().events_executed())
        << SchedKindName(kind);
  }
}

TEST(TelemetryEndToEnd, DisabledTelemetryMatchesEnabledFingerprint) {
  // The RunFor cadence chunking happens whenever a telemetry is attached;
  // enabled vs disabled must not change the trace either.
  const TelemetryRun enabled =
      RunPingScenario(SchedKind::kTableau, true, /*telemetry_enabled=*/true);
  const TelemetryRun disabled =
      RunPingScenario(SchedKind::kTableau, true, /*telemetry_enabled=*/false);
  EXPECT_EQ(TraceFingerprint(*enabled.scenario.machine),
            TraceFingerprint(*disabled.scenario.machine));
  // Disabled means nothing recorded: no spans, empty windows.
  EXPECT_EQ(disabled.spans_checked, 0u);
  EXPECT_EQ(disabled.telemetry->slo().VerdictFor(0).requests, 0u);
}

TEST(TelemetryEndToEnd, RecordsSuppliesAndVerdicts) {
  const TelemetryRun run = RunPingScenario(SchedKind::kTableau, true);
  const Telemetry& telemetry = *run.telemetry;

  // The vantage VM answered pings: it has spans, service supply, and a
  // verdict with requests.
  const SloVerdict verdict = telemetry.slo().VerdictFor(0);
  EXPECT_GT(verdict.requests, 100u);
  EXPECT_GT(telemetry.RequestLatencyHistogram(0).count, 100u);
  EXPECT_GT(
      telemetry.AttributionHistogram(0, LatencyComponent::kService).count, 100u);

  const TimeSeriesSnapshot series = telemetry.TimeSeries();
  const auto& supply = series.series.at("vm0.supply_ns").windows;
  EXPECT_FALSE(supply.empty());
  std::int64_t supplied = 0;
  for (const TimeSeriesWindow& window : supply) {
    supplied += window.sum;
  }
  EXPECT_GT(supplied, 0);
  // Cadence samples land one per window boundary crossed by RunFor.
  const auto& waiting = series.series.at("machine.runnable_waiting").windows;
  EXPECT_GE(waiting.size(), 2u);

  // The JSON bundle is well-formed enough to carry the schema marker and
  // both sections.
  const std::string json = telemetry.ToJson();
  EXPECT_NE(json.find("\"slo\""), std::string::npos);
  EXPECT_NE(json.find("\"attribution\""), std::string::npos);
  EXPECT_NE(json.find("\"timeseries\""), std::string::npos);
}

TEST(TelemetryEndToEnd, TelemetryRunIsDeterministic) {
  const TelemetryRun a = RunPingScenario(SchedKind::kTableau, true);
  const TelemetryRun b = RunPingScenario(SchedKind::kTableau, true);
  EXPECT_EQ(a.telemetry->TimeSeries(), b.telemetry->TimeSeries());
  EXPECT_EQ(a.telemetry->ToJson(), b.telemetry->ToJson());
}

// --- Perfetto flow events ---

TEST(TraceExportFlows, FlowEventsValidateAndLinkWakeupsToDispatches) {
  const TelemetryRun run = RunPingScenario(SchedKind::kTableau, true);
  ASSERT_GT(run.scenario.machine->trace().size(), 0u);

  obs::PerfettoExportOptions options;
  options.include_flows = true;
  for (const Vcpu* vcpu : run.scenario.vcpus) {
    options.vcpu_names[vcpu->id()] = vcpu->params().name;
  }
  const std::string json = obs::TraceToPerfettoJson(
      run.scenario.machine->trace(), run.scenario.machine->num_cpus(), options);
  std::string error;
  EXPECT_TRUE(obs::ValidatePerfettoJson(json, &error)) << error;
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"t\""), std::string::npos);

  // Off by default: the export without flows must not contain any.
  obs::PerfettoExportOptions no_flows;
  const std::string plain = obs::TraceToPerfettoJson(
      run.scenario.machine->trace(), run.scenario.machine->num_cpus(), no_flows);
  EXPECT_EQ(plain.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_EQ(plain.find("wake latency"), std::string::npos);
}

}  // namespace
}  // namespace tableau
