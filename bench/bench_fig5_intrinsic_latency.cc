// Reproduces Fig. 5: maximum scheduling delay as measured by
// redis-cli --intrinsic-latency (a tight CPU-bound loop in the vantage VM
// that observes gaps between iterations), for capped (a) and uncapped (b)
// scenarios with no background, an I/O-intensive background, and a
// CPU-intensive background (4 VMs per core on the 16-core machine).
//
// Paper claims to check:
//  - capped: Credit up to ~44 ms; RTDS ~10-13 ms; Tableau always ~10 ms
//    regardless of background.
//  - uncapped, no background: sub-millisecond for every scheduler.
//  - uncapped with background: Credit degrades severely (up to 220 ms with
//    I/O background); Tableau stays at <= 10 ms.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/obs/telemetry.h"

using namespace tableau;
using namespace tableau::bench;

namespace {

struct GapResult {
  double max_ms = 0;
  double jitter_ms = 0;  // Stddev of the service gaps (Welford).
  // Machine-wide causal totals over the run, from the windowed telemetry:
  // time runnable vCPUs spent descheduled by the table (blackout) vs late
  // table switches (slip). The blackout total is the causal mass behind the
  // gap maximum the figure reports.
  double blackout_total_ms = 0;
  double slip_total_ms = 0;
};

// Sum of one series' window sums in a merged snapshot (ns -> ms).
double SeriesTotalMs(const obs::TimeSeriesSnapshot& snapshot, const std::string& name) {
  const auto it = snapshot.series.find(name);
  if (it == snapshot.series.end()) {
    return 0;
  }
  std::int64_t total = 0;
  for (const obs::TimeSeriesWindow& window : it->second.windows) {
    total += window.sum;
  }
  return ToMs(total);
}

GapResult MeasureGaps(SchedKind kind, bool capped, Background bg, TimeNs duration) {
  ScenarioConfig config;
  config.scheduler = kind;
  config.capped = capped;
  Scenario scenario = BuildScenario(config);

  // Machine-wide window series only: this bench has no request spans, so the
  // telemetry contributes the per-pCPU/machine supply-side decomposition.
  obs::Telemetry::Config telemetry_config;
  telemetry_config.window_ns = 100 * kMillisecond;
  telemetry_config.window_capacity = 256;
  telemetry_config.vantage_vcpus = 0;
  obs::Telemetry telemetry(telemetry_config);
  AttachTelemetry(scenario, &telemetry);

  scenario.vantage->EnableInstrumentation();
  CpuHogWorkload loop(scenario.machine, scenario.vantage);
  loop.Start(0);
  BackgroundWorkloads background;
  AttachBackground(scenario, bg, 1, background);
  scenario.machine->Start();
  scenario.machine->RunFor(duration);
  RecordScenarioMetrics(scenario);
  const obs::TimeSeriesSnapshot series = telemetry.TimeSeries();
  return GapResult{ToMs(scenario.vantage->service_gaps().Max()),
                   ToMs(static_cast<TimeNs>(scenario.vantage->service_gaps().StdDev())),
                   SeriesTotalMs(series, "machine.blackout_ns"),
                   SeriesTotalMs(series, "machine.slip_ns")};
}

const char* BgKey(Background bg) {
  switch (bg) {
    case Background::kNone:
      return "no_bg";
    case Background::kIo:
    case Background::kIoHeavy:
      return "io_bg";
    case Background::kCpu:
      return "cpu_bg";
  }
  return "?";
}

void RunScenario(const char* title, const char* prefix, bool capped,
                 const std::vector<SchedKind>& kinds, TimeNs duration, BenchJson& json) {
  // Every (scheduler, background) cell is an independent simulation: fan the
  // grid out over the worker pool, then print in row order.
  const std::vector<Background> bgs = {Background::kNone, Background::kIoHeavy,
                                       Background::kCpu};
  std::vector<std::function<GapResult()>> tasks;
  for (const SchedKind kind : kinds) {
    for (const Background bg : bgs) {
      tasks.push_back([=] { return MeasureGaps(kind, capped, bg, duration); });
    }
  }
  const std::vector<GapResult> cells = RunSimulations(tasks);

  PrintHeader(title);
  std::printf("%-10s | %9s %9s | %9s %9s | %9s %9s\n", "", "none max", "jitter",
              "I/O max", "jitter", "CPU max", "jitter");
  for (std::size_t row = 0; row < kinds.size(); ++row) {
    std::printf("%-10s |", SchedKindName(kinds[row]));
    for (std::size_t col = 0; col < bgs.size(); ++col) {
      const GapResult& cell = cells[row * bgs.size() + col];
      std::printf(" %8.2fms %8.3f |", cell.max_ms, cell.jitter_ms);
      json.Add(std::string(prefix) + "." + SchedKindName(kinds[row]) + "." +
                   BgKey(bgs[col]) + ".max_ms",
               cell.max_ms);
      json.Add(std::string(prefix) + "." + SchedKindName(kinds[row]) + "." +
                   BgKey(bgs[col]) + ".jitter_ms",
               cell.jitter_ms);
      json.Add(std::string(prefix) + "." + SchedKindName(kinds[row]) + "." +
                   BgKey(bgs[col]) + ".blackout_total_ms",
               cell.blackout_total_ms);
      json.Add(std::string(prefix) + "." + SchedKindName(kinds[row]) + "." +
                   BgKey(bgs[col]) + ".slip_total_ms",
               cell.slip_total_ms);
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  const TimeNs duration = MeasureDuration(20 * kSecond);
  BenchJson json("fig5_intrinsic_latency");
  RunScenario("Fig 5(a): max intrinsic scheduling delay, capped VMs", "capped",
              /*capped=*/true, {SchedKind::kCredit, SchedKind::kRtds, SchedKind::kTableau},
              duration, json);
  std::printf("paper (capped): Credit up to ~44 ms; RTDS ~10-13 ms; Tableau ~10 ms.\n");

  RunScenario("Fig 5(b): max intrinsic scheduling delay, uncapped VMs", "uncapped",
              /*capped=*/false,
              {SchedKind::kCredit, SchedKind::kCredit2, SchedKind::kTableau}, duration,
              json);
  std::printf(
      "paper (uncapped): sub-ms with no BG for all; with BG Credit degrades badly\n"
      "(up to 220 ms under I/O BG); Credit2 poor under I/O BG; Tableau <= 10 ms.\n");
  json.Write();
  return 0;
}
