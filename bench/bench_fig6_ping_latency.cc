// Reproduces Fig. 6: average (a, b) and maximum (c, d) round-trip ping
// latency from the client machine to the vantage VM, for uncapped and capped
// scenarios with no background, an I/O-intensive background, and a
// CPU-intensive background.
//
// Setup mirrors Sec. 7.3: randomly spaced echo requests; ICMP is handled in
// the guest kernel (ahead of user-level work) and every VM occasionally
// needs CPU for system processes — which is what makes Credit's capped
// maximum reach ~15 ms even without a background workload (a VM can exhaust
// its credit and wait out its three core-mates).
//
// Paper claims to check:
//  - uncapped avg: ~100 us for all schedulers without background; Tableau
//    noticeably higher (but within its goal) under a CPU background.
//  - capped avg: Tableau's rigid table yields clearly higher averages (but
//    well below the 20 ms goal).
//  - capped max: Credit ~15 ms with no BG and ~30 ms under I/O BG; RTDS ~9 ms;
//    Tableau never above ~10 ms regardless of background.
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/obs/telemetry.h"
#include "src/workloads/ping.h"

using namespace tableau;
using namespace tableau::bench;

namespace {

struct PingResult {
  double avg_ms;
  double max_ms;
  double jitter_ms;  // Stddev of the round-trip latency (Welford).
  // Windowed telemetry: SLO attainment and mean causal attribution of the
  // vantage VM's ping latency (queue = wake->dispatch wait, blackout =
  // table-gap preemption time), from the cell's Telemetry.
  double slo_attainment;
  double p99_ms;
  double queue_mean_ms;
  double blackout_mean_ms;
};

PingResult MeasurePing(SchedKind kind, bool capped, Background bg, int pings_per_thread,
                       const std::string& cell) {
  ScenarioConfig config;
  config.scheduler = kind;
  config.capped = capped;
  Scenario scenario = BuildScenario(config);

  // Windowed telemetry for this cell: vantage-only vCPU series and span
  // histograms (the grid has 48 vCPUs; machine-wide series cover the
  // rest), 10 ms SLO at p99 —
  // Tableau's "never above ~10 ms" claim as a trackable objective.
  obs::Telemetry::Config telemetry_config;
  telemetry_config.window_ns = 50 * kMillisecond;
  telemetry_config.window_capacity = 256;
  telemetry_config.vantage_vcpus = 1;
  telemetry_config.series_prefix = cell + ".";
  telemetry_config.slo.target_latency_ns = 10 * kMillisecond;
  telemetry_config.slo.target_quantile = 0.99;
  telemetry_config.slo.miss_budget = 0.01;
  obs::Telemetry telemetry(telemetry_config);
  AttachTelemetry(scenario, &telemetry);

  // The vantage VM hosts the echo responder plus system-process noise.
  WorkQueueGuest vantage_guest(scenario.machine, scenario.vantage);
  SystemNoiseWorkload::Config noise_config;
  noise_config.min_interval = 15 * kMillisecond;
  noise_config.max_interval = 45 * kMillisecond;
  noise_config.min_burst = 3 * kMillisecond;
  noise_config.max_burst = 8 * kMillisecond;
  noise_config.seed = 1;
  SystemNoiseWorkload vantage_noise(scenario.machine, &vantage_guest, noise_config);
  vantage_noise.Start(0);

  // Background VMs: system-process noise always (idle VMs "still require
  // CPU time occasionally for system processes"), plus the selected stress
  // workload. The fully CPU-bound hog subsumes any noise.
  BackgroundWorkloads background;
  VmNoiseWorkloads vm_noise;
  if (bg == Background::kCpu) {
    AttachBackground(scenario, bg, 1, background);
  } else {
    AttachVmNoise(scenario, 1, noise_config, /*with_io=*/bg == Background::kIo,
                  vm_noise);
  }

  PingTraffic::Config ping_config;
  ping_config.threads = 8;
  ping_config.pings_per_thread = pings_per_thread;
  ping_config.max_spacing = 20 * kMillisecond;
  PingTraffic ping(scenario.machine, &vantage_guest, ping_config);
  ping.AttachTelemetry(&telemetry);
  ping.Start(0);

  scenario.machine->Start();
  // Run until all pings have been answered (spacing mean 10 ms + margin).
  const TimeNs horizon =
      static_cast<TimeNs>(pings_per_thread) * ping_config.max_spacing / 2 + 2 * kSecond;
  scenario.machine->RunFor(horizon);
  RecordScenarioMetrics(scenario);
  AccumulatedTimeSeries::Instance().Record(telemetry.TimeSeries());

  // Vantage VM is VM 0 in BuildScenario's grouping.
  const obs::SloVerdict verdict = telemetry.slo().VerdictFor(0);
  const obs::HistogramValue latency = telemetry.RequestLatencyHistogram(0);
  const obs::HistogramValue queue =
      telemetry.AttributionHistogram(0, obs::LatencyComponent::kWakeQueue);
  const obs::HistogramValue blackout =
      telemetry.AttributionHistogram(0, obs::LatencyComponent::kBlackout);
  return PingResult{ToMs(static_cast<TimeNs>(ping.latencies().Mean())),
                    ToMs(ping.latencies().Max()),
                    ToMs(static_cast<TimeNs>(ping.latencies().StdDev())),
                    verdict.attainment,
                    ToMs(latency.Percentile(0.99)),
                    ToMs(static_cast<TimeNs>(queue.Mean())),
                    ToMs(static_cast<TimeNs>(blackout.Mean()))};
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
                 const std::vector<SchedKind>& kinds, int pings, BenchJson& json) {
  // Independent (scheduler, background) cells: measure in parallel, print in
  // row order.
  const std::vector<Background> bgs = {Background::kNone, Background::kIo,
                                       Background::kCpu};
  std::vector<std::function<PingResult()>> tasks;
  for (const SchedKind kind : kinds) {
    for (const Background bg : bgs) {
      const std::string cell =
          std::string(prefix) + "." + SchedKindName(kind) + "." + BgKey(bg);
      tasks.push_back([=] { return MeasurePing(kind, capped, bg, pings, cell); });
    }
  }
  const std::vector<PingResult> cells = RunSimulations(tasks);

  PrintHeader(title);
  std::printf("%-10s | %8s %8s %8s | %8s %8s %8s | %8s %8s %8s\n", "", "none avg",
              "max", "jitter", "I/O avg", "max", "jitter", "CPU avg", "max", "jitter");
  for (std::size_t row = 0; row < kinds.size(); ++row) {
    std::printf("%-10s |", SchedKindName(kinds[row]));
    for (std::size_t col = 0; col < bgs.size(); ++col) {
      const PingResult& result = cells[row * bgs.size() + col];
      std::printf(" %7.3fms %6.2fms %6.3fms |", result.avg_ms, result.max_ms,
                  result.jitter_ms);
      const std::string cell = std::string(prefix) + "." + SchedKindName(kinds[row]) +
                               "." + BgKey(bgs[col]);
      json.Add(cell + ".avg_ms", result.avg_ms);
      json.Add(cell + ".max_ms", result.max_ms);
      json.Add(cell + ".jitter_ms", result.jitter_ms);
      json.Add(cell + ".slo_attainment", result.slo_attainment);
      json.Add(cell + ".p99_ms", result.p99_ms);
      json.Add(cell + ".attr_queue_mean_ms", result.queue_mean_ms);
      json.Add(cell + ".attr_blackout_mean_ms", result.blackout_mean_ms);
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  int pings = 600;  // Per thread; 8 threads -> 4,800 samples per cell.
  if (const char* env = std::getenv("TABLEAU_BENCH_SECONDS")) {
    const double seconds = std::atof(env);
    if (seconds > 0) {
      pings = static_cast<int>(seconds * 100);
    }
  }
  BenchJson json("fig6_ping_latency");
  RunScenario("Fig 6(a,c): ping latency, uncapped VMs", "uncapped", /*capped=*/false,
              {SchedKind::kCredit, SchedKind::kCredit2, SchedKind::kTableau}, pings, json);
  std::printf(
      "paper: avg ~0.1 ms for all with no BG; Credit max approaches 75 ms under\n"
      "I/O BG; Tableau avg higher under CPU BG but max always <= 10 ms.\n");

  RunScenario("Fig 6(b,d): ping latency, capped VMs", "capped", /*capped=*/true,
              {SchedKind::kCredit, SchedKind::kRtds, SchedKind::kTableau}, pings, json);
  std::printf(
      "paper: Credit max ~15 ms even with no BG and ~30 ms under I/O BG;\n"
      "RTDS max ~9 ms; Tableau max <= 10 ms regardless of background.\n");
  // Windowed telemetry from every cell, merged order-independently (cells
  // record concurrently; TimeSeriesSnapshot::Merge commutes).
  json.AddRawBlock("timeseries",
                   AccumulatedTimeSeries::Instance().Get().ToJson(/*indent=*/2));
  json.Write();
  return 0;
}
