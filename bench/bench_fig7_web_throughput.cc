// Reproduces Fig. 7: nginx-style HTTPS latency-vs-throughput curves for
// capped (rows 1-3) and uncapped (rows 4-6) scenarios, serving 1 KiB,
// 100 KiB, and 1 MiB files with an I/O-intensive background workload, under
// Credit + RTDS + Tableau (capped) and Credit + Credit2 + Tableau (uncapped).
// Also reproduces the Sec. 7.4 decision trace: the fraction of the vantage
// VM's dispatches made by the second-level scheduler in the uncapped run.
//
// Paper claims to check (shape, not absolute numbers):
//  - 1 KiB / 100 KiB capped: Tableau reaches the highest SLA-aware peak
//    (e.g. ~1,600 req/s vs RTDS ~1,000 at a 100 ms p99 SLA for 1 KiB);
//    Tableau's mean latency is higher at low rates but stays flat.
//  - 1 MiB capped: Credit beats Tableau (rigid slots leave the NIC idle
//    during blackouts; Sec. 7.5).
//  - uncapped: Tableau sustains the highest throughput for all sizes; its
//    second-level scheduler contributes >85% of vantage dispatches near
//    saturation; the 1 MiB penalty disappears.
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/obs/telemetry.h"
#include "src/workloads/web.h"

using namespace tableau;
using namespace tableau::bench;

namespace {

struct WebPoint {
  double throughput;
  double mean_ms;
  double p99_ms;
  double max_ms;
  double second_level_fraction;
  // Per-point SLO tracking against the bench's 100 ms p99 SLA, plus the mean
  // causal split of request latency between CPU service and table
  // blackout/preemption time (Sec. 7.5's NIC-idle effect shows up here).
  double slo_attainment;
  double service_mean_ms;
  double stall_mean_ms;  // blackout + preempt + queue + slip
};

WebPoint MeasureWeb(SchedKind kind, bool capped, std::int64_t file_bytes, double rate,
                    TimeNs duration, Background bg = Background::kIoHeavy) {
  ScenarioConfig config;
  config.scheduler = kind;
  config.capped = capped;
  Scenario scenario = BuildScenario(config);

  // Per-point SLO/attribution telemetry: the vantage VM (the web server)
  // keeps its span histograms, read below; its per-vCPU window series go
  // unread (scalar verdicts are what the artifact keeps).
  obs::Telemetry::Config telemetry_config;
  telemetry_config.window_ns = 50 * kMillisecond;
  telemetry_config.vantage_vcpus = 1;
  telemetry_config.slo.target_latency_ns = 100 * kMillisecond;
  telemetry_config.slo.target_quantile = 0.99;
  telemetry_config.slo.miss_budget = 0.01;
  obs::Telemetry telemetry(telemetry_config);
  AttachTelemetry(scenario, &telemetry);

  WebServerWorkload::Config web_config;
  web_config.file_bytes = file_bytes;
  WebServerWorkload server(scenario.machine, scenario.vantage, web_config);
  server.AttachTelemetry(&telemetry);
  OpenLoopClient::Config client_config;
  client_config.requests_per_sec = rate;
  client_config.duration = duration;
  OpenLoopClient client(scenario.machine, &server, client_config);
  client.Start(0);

  BackgroundWorkloads background;
  AttachBackground(scenario, bg, 1, background);
  scenario.machine->Start();
  scenario.machine->RunFor(duration);

  WebPoint point;
  point.throughput = static_cast<double>(server.completed()) / ToSec(duration);
  point.mean_ms = ToMs(static_cast<TimeNs>(server.latencies().Mean()));
  point.p99_ms = ToMs(server.latencies().Percentile(0.99));
  point.max_ms = ToMs(server.latencies().Max());
  point.second_level_fraction =
      scenario.machine->SecondLevelFraction(scenario.vantage->id());
  point.slo_attainment = telemetry.slo().VerdictFor(0).attainment;
  const auto mean_ms = [&](obs::LatencyComponent c) {
    return ToMs(static_cast<TimeNs>(telemetry.AttributionHistogram(0, c).Mean()));
  };
  point.service_mean_ms = mean_ms(obs::LatencyComponent::kService);
  point.stall_mean_ms = mean_ms(obs::LatencyComponent::kBlackout) +
                        mean_ms(obs::LatencyComponent::kPreempt) +
                        mean_ms(obs::LatencyComponent::kWakeQueue) +
                        mean_ms(obs::LatencyComponent::kSwitchSlip);
  RecordScenarioMetrics(scenario);
  return point;
}

void RunPanel(const char* title, const char* prefix, bool capped, std::int64_t file_bytes,
              const std::vector<double>& rates, const std::vector<SchedKind>& kinds,
              TimeNs duration, BenchJson& json, Background bg = Background::kIoHeavy) {
  // The full (scheduler, rate) load grid is embarrassingly parallel; merge
  // back by index so the curve prints in sweep order.
  std::vector<std::function<WebPoint()>> tasks;
  for (const SchedKind kind : kinds) {
    for (const double rate : rates) {
      tasks.push_back(
          [=] { return MeasureWeb(kind, capped, file_bytes, rate, duration, bg); });
    }
  }
  const std::vector<WebPoint> points = RunSimulations(tasks);

  PrintHeader(title);
  std::printf("%-10s %8s %10s %10s %10s %10s\n", "sched", "rate", "tput", "mean(ms)",
              "p99(ms)", "max(ms)");
  for (std::size_t row = 0; row < kinds.size(); ++row) {
    const SchedKind kind = kinds[row];
    double sla_peak = 0;
    for (std::size_t col = 0; col < rates.size(); ++col) {
      const WebPoint& point = points[row * rates.size() + col];
      std::printf("%-10s %8.0f %10.1f %10.2f %10.2f %10.2f\n", SchedKindName(kind),
                  rates[col], point.throughput, point.mean_ms, point.p99_ms,
                  point.max_ms);
      if (point.p99_ms < 100.0 && point.throughput > sla_peak) {
        sla_peak = point.throughput;
      }
      const std::string cell = std::string(prefix) + "." + SchedKindName(kind) +
                               ".r" + std::to_string(static_cast<int>(rates[col]));
      json.Add(cell + ".slo_attainment", point.slo_attainment);
      json.Add(cell + ".attr_service_mean_ms", point.service_mean_ms);
      json.Add(cell + ".attr_stall_mean_ms", point.stall_mean_ms);
    }
    std::printf("%-10s SLA-aware peak (p99 <= 100 ms): %.0f req/s\n",
                SchedKindName(kind), sla_peak);
    json.Add(std::string(prefix) + "." + SchedKindName(kind) + ".sla_peak_rps",
             sla_peak);
  }
}

}  // namespace

int main() {
  const TimeNs duration = MeasureDuration(4 * kSecond);
  BenchJson json("fig7_web_throughput");

  const std::vector<SchedKind> capped_kinds = {SchedKind::kCredit, SchedKind::kRtds,
                                               SchedKind::kTableau};
  const std::vector<SchedKind> uncapped_kinds = {SchedKind::kCredit, SchedKind::kCredit2,
                                                 SchedKind::kTableau};

  const std::vector<double> rates_1k = {400, 800, 1200, 1500, 1700, 1900};
  const std::vector<double> rates_100k = {300, 600, 900, 1200, 1450, 1650};
  const std::vector<double> rates_1m = {40, 100, 160, 240, 320, 420};

  RunPanel("Fig 7(a-c): capped, 1 KiB files, I/O background", "capped_1k", true, 1 << 10,
           rates_1k, capped_kinds, duration, json);
  RunPanel("Fig 7(d-f): capped, 100 KiB files, I/O background", "capped_100k", true,
           100 << 10, rates_100k, capped_kinds, duration, json);
  RunPanel("Fig 7(g-i): capped, 1 MiB files, I/O background", "capped_1m", true, 1 << 20,
           rates_1m, capped_kinds, duration, json);
  std::printf(
      "\npaper (capped): Tableau has the highest SLA-aware peak for 1 KiB and\n"
      "100 KiB (e.g. 1,600 vs RTDS 1,000 req/s at p99 <= 100 ms for 1 KiB) with a\n"
      "higher but flat mean; for 1 MiB, Credit beats Tableau (Sec. 7.5 NIC-burst\n"
      "effect).\n");

  RunPanel("Fig 7(j-l): uncapped, 1 KiB files, I/O background", "uncapped_1k", false,
           1 << 10, rates_1k, uncapped_kinds, duration, json);
  RunPanel("Fig 7(m-o): uncapped, 100 KiB files, I/O background", "uncapped_100k", false,
           100 << 10, rates_100k, uncapped_kinds, duration, json);
  RunPanel("Fig 7(p-r): uncapped, 1 MiB files, I/O background", "uncapped_1m", false,
           1 << 20, rates_1m, uncapped_kinds, duration, json);
  std::printf(
      "\npaper (uncapped): Tableau sustains the highest peak for all sizes (~60%%\n"
      "more than Credit2 at 100 KiB); the capped 1 MiB penalty disappears thanks\n"
      "to the second-level scheduler.\n");

  // Sec. 7.4 decision-source trace at a rate only the uncapped configuration
  // sustains.
  const WebPoint trace =
      MeasureWeb(SchedKind::kTableau, /*capped=*/false, 100 << 10, 700, duration);
  std::printf(
      "\nSec 7.4 trace: at 700 req/s (100 KiB, uncapped), %.1f%% of the vantage\n"
      "VM's dispatches came from the second-level scheduler (paper: >85%%).\n",
      100.0 * trace.second_level_fraction);
  json.Add("second_level_fraction", trace.second_level_fraction);
  json.Write();
  return 0;
}
