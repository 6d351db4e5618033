// Tests for the windowed telemetry layer: TimeSeriesRecorder ring/window
// semantics and order-independent merge, the causal LatencyAttributor's exact
// time-partitioning (scripted and end-to-end across all five schedulers),
// the per-VM SloTracker's window/streak/burst logic, Perfetto flow-event
// export, and — most load-bearing — the purity guarantee: a run with
// telemetry attached is trace-fingerprint-identical to one without.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
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

// The per-series ring recorder that the window-major block replaced (one
// ring of windows per series), kept as the differential reference.
class RingReference {
 public:
  RingReference(TimeNs window_ns, int capacity)
      : window_ns_(window_ns), capacity_(capacity) {}

  int Define(std::string name) {
    Series series;
    series.name = std::move(name);
    series.ring.resize(static_cast<std::size_t>(capacity_));
    series_.push_back(std::move(series));
    return static_cast<int>(series_.size()) - 1;
  }

  void Observe(int id, TimeNs at, std::int64_t value) {
    if (TimeSeriesWindow* window = SlotFor(series_[id], at / window_ns_)) {
      Add(*window, value);
    }
  }

  void AddRange(int id, TimeNs from, TimeNs to) {
    Series& s = series_[id];
    const std::int64_t last = (to - 1) / window_ns_;
    std::int64_t first = from / window_ns_;
    if (last - first + 1 > capacity_) {
      s.late_samples += static_cast<std::uint64_t>(last - first + 1 - capacity_);
      first = last - capacity_ + 1;
    }
    for (std::int64_t w = first; w <= last; ++w) {
      if (TimeSeriesWindow* window = SlotFor(s, w)) {
        Add(*window, std::min(to, (w + 1) * window_ns_) - std::max(from, w * window_ns_));
      }
    }
  }

  TimeSeriesSnapshot Snapshot() const {
    TimeSeriesSnapshot snapshot;
    snapshot.window_ns = window_ns_;
    for (const Series& series : series_) {
      obs::TimeSeriesData data;
      data.dropped_windows = series.dropped_windows;
      data.late_samples = series.late_samples;
      for (std::int64_t w = series.oldest; series.newest >= 0 && w <= series.newest; ++w) {
        data.windows.push_back(series.ring[static_cast<std::size_t>(w % capacity_)]);
      }
      snapshot.series.emplace(series.name, std::move(data));
    }
    return snapshot;
  }

 private:
  struct Series {
    std::string name;
    std::vector<TimeSeriesWindow> ring;
    std::int64_t oldest = 0;
    std::int64_t newest = -1;
    std::uint64_t dropped_windows = 0;
    std::uint64_t late_samples = 0;
  };

  static void Add(TimeSeriesWindow& window, std::int64_t value) {
    window.min = window.count == 0 ? value : std::min(window.min, value);
    window.max = window.count == 0 ? value : std::max(window.max, value);
    window.count += 1;
    window.sum += value;
  }

  TimeSeriesWindow* SlotFor(Series& series, std::int64_t w) {
    const auto slot = [&](std::int64_t index) -> TimeSeriesWindow& {
      return series.ring[static_cast<std::size_t>(index % capacity_)];
    };
    if (series.newest < 0) {
      series.oldest = w;
      series.newest = w;
      slot(w) = TimeSeriesWindow{w * window_ns_, 0, 0, 0, 0};
      return &slot(w);
    }
    if (w > series.newest) {
      const std::int64_t new_oldest = std::max(series.oldest, w - capacity_ + 1);
      if (new_oldest > series.oldest) {
        series.dropped_windows += static_cast<std::uint64_t>(
            std::min(series.newest, new_oldest - 1) - series.oldest + 1);
        series.oldest = new_oldest;
      }
      for (std::int64_t k = std::max(series.newest + 1, new_oldest); k <= w; ++k) {
        slot(k) = TimeSeriesWindow{k * window_ns_, 0, 0, 0, 0};
      }
      series.newest = w;
      return &slot(w);
    }
    if (w < series.oldest) {
      ++series.late_samples;
      return nullptr;
    }
    return &slot(w);
  }

  TimeNs window_ns_;
  std::int64_t capacity_;
  std::vector<Series> series_;
};

TEST(TimeSeriesRecorder, WindowMajorBlockMatchesPerSeriesRings) {
  // Random samples and ranges around a mostly advancing clock, with jumps
  // that evict, samples behind the ring (late), ranges straddling several
  // windows and longer than the ring, and series defined after recording.
  // The block constructs its rows only as windows reach them, so the
  // production capacity (256) also runs: its first sample lands in a late
  // window (row 200, so rows below it are constructed unopened), snapshots
  // are compared while the run is shorter than the ring, and series are
  // defined (the block widened) before the ring is full.
  constexpr TimeNs kWindow = 100;
  struct Shape {
    int capacity;
    std::int64_t first_window;
  };
  for (const Shape shape : {Shape{1, 0}, Shape{3, 0}, Shape{8, 0}, Shape{256, 200}}) {
    const int capacity = shape.capacity;
    TimeSeriesRecorder recorder({kWindow, capacity});
    RingReference reference(kWindow, capacity);
    Rng rng(static_cast<std::uint64_t>(capacity));
    std::vector<TimeSeriesRecorder::SeriesId> ids;
    const auto define = [&] {
      const std::string name = "s" + std::to_string(ids.size());
      ids.push_back(recorder.DefineSeries(name));
      EXPECT_EQ(reference.Define(name), ids.back());
    };
    define();
    define();
    TimeNs clock = shape.first_window * kWindow;
    // Whether the run had opened fewer windows than the ring holds.
    const auto shorter_than_ring = [&] {
      return clock / kWindow - shape.first_window + 1 < capacity;
    };
    int short_run_checks = 0;
    int mid_ring_widenings = 0;
    for (int op = 0; op < 6000; ++op) {
      const int pick = static_cast<int>(rng.UniformInt(0, 99));
      if (pick < 2 && ids.size() < 7) {
        define();
        if (pick == 0 && ids.size() < 7) {
          define();  // Two defines, then one widening.
        }
        mid_ring_widenings += shorter_than_ring() ? 1 : 0;
        // Every series again at the current time, newest first: its sample
        // widens the block, and most older series are still in their newest
        // window, whose cell the widening moved.
        for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
          recorder.Observe(*it, clock, pick);
          reference.Observe(*it, clock, pick);
        }
        continue;
      }
      clock += pick < 5 ? rng.UniformInt(0, 20 * kWindow) : rng.UniformInt(0, 30);
      const TimeNs at = pick < 15 ? std::max<TimeNs>(0, clock - rng.UniformInt(0, 12 * kWindow))
                                  : clock;
      const auto id = ids[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(ids.size()) - 1))];
      if (pick % 2 == 0) {
        const std::int64_t value = rng.UniformInt(-50, 1000);
        recorder.Observe(id, at, value);
        reference.Observe(id, at, value);
      } else {
        const TimeNs to = at + 1 + (pick < 30 ? rng.UniformInt(0, 12 * kWindow)
                                              : rng.UniformInt(0, kWindow));
        recorder.AddRange(id, at, to);
        reference.AddRange(id, at, to);
      }
      if (op % 97 == 0) {
        ASSERT_EQ(recorder.Snapshot(), reference.Snapshot())
            << "capacity " << capacity << ", op " << op;
        short_run_checks += shorter_than_ring() ? 1 : 0;
      }
    }
    if (capacity == 256) {
      EXPECT_GT(short_run_checks, 0);
      EXPECT_GT(mid_ring_widenings, 0);
    }
    const TimeSeriesSnapshot snapshot = recorder.Snapshot();
    EXPECT_EQ(snapshot, reference.Snapshot()) << "capacity " << capacity;
    std::uint64_t dropped = 0;
    std::uint64_t late = 0;
    for (const auto& [name, data] : snapshot.series) {
      dropped += data.dropped_windows;
      late += data.late_samples;
    }
    EXPECT_GT(dropped, 0u) << "capacity " << capacity;
    EXPECT_GT(late, 0u) << "capacity " << capacity;
    EXPECT_EQ(ids.size(), 7u);
  }
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

// --- Vantage-only span histograms ---

TEST(Telemetry, NonVantageVmRecordsExactLatencyWithoutHistograms) {
  // vCPU 0 is the vantage; vCPU 1, a separate VM, follows the same script.
  // The request mark is taken at t=15, before the dispatch at t=20 that
  // opened the state it falls in (a catch-up mark): the SLO latency (end -
  // mark.at) + extra must still equal the breakdown's total exactly.
  Telemetry::Config config;
  config.window_ns = 100;
  config.vantage_vcpus = 1;
  config.slo.target_latency_ns = 50;
  const auto run = [&config](bool observe, std::vector<LatencyBreakdown>* spans) {
    auto telemetry = std::make_unique<Telemetry>(config);
    if (observe) {
      telemetry->set_span_observer([spans](int vcpu, TimeNs start, TimeNs end,
                                           const LatencyBreakdown& breakdown) {
        EXPECT_EQ(breakdown.Total(), end - start + 7) << "vcpu " << vcpu;
        (*spans)[static_cast<std::size_t>(vcpu)] = breakdown;
      });
    }
    telemetry->Bind(/*num_cpus=*/1, /*num_vcpus=*/2, /*table_driven=*/true, 0);
    for (int v = 0; v < 2; ++v) {
      telemetry->OnWakeup(v, 10);
      telemetry->OnDispatch(v, 20);
      const Telemetry::RequestMark mark = telemetry->BeginRequest(v, 15);
      // Without an observer only the vantage VM's mark captures totals.
      EXPECT_EQ(mark.totals == LatencyBreakdown{}, v == 1 && !observe) << v;
      telemetry->OnDeschedule(v, 40);
      telemetry->OnDispatch(v, 60);
      telemetry->EndRequest(v, mark, 70, /*network_extra_ns=*/7);
    }
    return telemetry;
  };

  std::vector<LatencyBreakdown> spans(2);
  for (const bool observe : {false, true}) {
    const std::unique_ptr<Telemetry> telemetry = run(observe, &spans);
    const obs::HistogramValue latency = telemetry->RequestLatencyHistogram(0);
    EXPECT_EQ(latency.count, 1u);
    EXPECT_EQ(latency.sum, 62);  // (70 - 15) + 7.
    EXPECT_EQ(telemetry->AttributionHistogram(0, LatencyComponent::kBlackout).sum, 20);
    EXPECT_EQ(telemetry->RequestLatencyHistogram(1).count, 0u);
    EXPECT_EQ(telemetry->AttributionHistogram(1, LatencyComponent::kService).count, 0u);
    for (int vm = 0; vm < 2; ++vm) {
      const SloVerdict verdict = telemetry->slo().VerdictFor(vm);
      EXPECT_EQ(verdict.requests, 1u) << vm;
      EXPECT_EQ(verdict.misses, 1u) << vm;  // 62 ns against a 50 ns target.
    }
    // Only the vantage VM appears in the attribution section.
    const std::string json = telemetry->ToJson();
    const std::string attribution =
        json.substr(json.find("\"attribution\""), json.find("\"timeseries\"") -
                                                      json.find("\"attribution\""));
    EXPECT_NE(attribution.find("\"vm0\""), std::string::npos);
    EXPECT_EQ(attribution.find("\"vm1\""), std::string::npos);
  }
  // The observer saw both VMs' exact breakdowns, identical for one script.
  EXPECT_EQ(spans[0].Total(), 62);
  EXPECT_EQ(spans[1], spans[0]);
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

// FNV-1a over a document's bytes.
std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return hash;
}

TEST(TelemetryEndToEnd, ToJsonBytesArePinned) {
  // The full export of a `tableau obs`-style cell (every VM keeps its span
  // histograms and per-vCPU series): SLO verdicts, attribution histograms
  // and the windowed series, byte for byte. A recorder or telemetry change
  // that alters any recorded value or the document layout moves this hash.
  const TelemetryRun run = RunPingScenario(SchedKind::kTableau, true);
  EXPECT_EQ(Fnv1a(run.telemetry->ToJson()), 0x29d31b4eb504a185ull);
}

TEST(TelemetryEndToEnd, TelemetryRunIsDeterministic) {
  const TelemetryRun a = RunPingScenario(SchedKind::kTableau, true);
  const TelemetryRun b = RunPingScenario(SchedKind::kTableau, true);
  EXPECT_EQ(a.telemetry->TimeSeries(), b.telemetry->TimeSeries());
  EXPECT_EQ(a.telemetry->ToJson(), b.telemetry->ToJson());
}

TEST(MachineCadence, StateCountsMatchAFullScanAtEveryCadenceSample) {
  // Machine keeps its runnable-waiting and running counts at the vCPU state
  // transitions; the values each cadence sample records must equal a scan
  // of every vCPU at that boundary. A CPU hog in the vantage VM makes slice
  // ends re-pick the vCPU that was already running (a deschedule and
  // dispatch of the same vCPU).
  std::uint64_t repicks = 0;
  for (const SchedKind kind : kAllSchedulers) {
    ScenarioConfig config;
    config.scheduler = kind;
    config.capped = kind != SchedKind::kCredit2;
    config.guest_cpus = 2;
    config.cores_per_socket = 1;
    Scenario scenario = BuildScenario(config);
    Telemetry::Config telemetry_config;
    telemetry_config.window_ns = kMillisecond;
    Telemetry telemetry(telemetry_config);
    AttachTelemetry(scenario, &telemetry);
    CpuHogWorkload hog(scenario.machine, scenario.vantage);
    hog.Start(0);
    BackgroundWorkloads background;
    AttachBackground(scenario, Background::kIo, 1, background);
    Machine& machine = *scenario.machine;
    machine.Start();

    std::vector<std::int64_t> scanned_waiting;
    std::vector<std::int64_t> scanned_running;
    for (TimeNs at = kMillisecond; at <= 200 * kMillisecond; at += kMillisecond) {
      machine.RunFor(at - machine.Now());  // Ends on the boundary, unsampled.
      int waiting = 0;
      int running = 0;
      for (const auto& vcpu : machine.vcpus()) {
        waiting += vcpu->state() == VcpuState::kRunnable ? 1 : 0;
        running += vcpu->state() == VcpuState::kRunning ? 1 : 0;
      }
      machine.SampleTelemetryCadence(at);
      scanned_waiting.push_back(waiting);
      scanned_running.push_back(running);
    }
    // The recorded cadence series carry exactly the scanned values.
    const TimeSeriesSnapshot series = telemetry.TimeSeries();
    const auto& waiting_windows = series.series.at("machine.runnable_waiting").windows;
    const auto& running_windows = series.series.at("machine.running").windows;
    ASSERT_EQ(waiting_windows.size(), scanned_waiting.size()) << SchedKindName(kind);
    ASSERT_EQ(running_windows.size(), scanned_running.size()) << SchedKindName(kind);
    for (std::size_t i = 0; i < scanned_waiting.size(); ++i) {
      EXPECT_EQ(waiting_windows[i].sum, scanned_waiting[i]) << SchedKindName(kind) << " " << i;
      EXPECT_EQ(running_windows[i].sum, scanned_running[i]) << SchedKindName(kind) << " " << i;
    }

    std::uint64_t dispatches = 0;
    for (const auto& vcpu : machine.vcpus()) {
      dispatches += vcpu->dispatch_count();
    }
    // Every dispatch is a context switch unless it re-picked the vCPU that
    // was already running.
    repicks += dispatches - machine.context_switches();
  }
  EXPECT_GT(repicks, 0u);
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
