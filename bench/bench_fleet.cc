// Fleet-scale simulation bench: a 64-host cluster (32 pCPUs x 4 slots per
// core = 8,192 vCPU slots) serving an open-loop VM reservation stream, run
// serially and on worker threads.
//
// Claims checked (the tentpole's acceptance criteria):
//  - Determinism: the fleet fingerprint and the merged metrics block are
//    byte-identical across serial and parallel execution, and across
//    repeated runs.
//  - Control plane: a scripted overload (one VM multiplies its service
//    demand mid-run) trips the burn-rate detector and produces a live
//    migration whose destination table still passes the TableVerifier.
//  - Reporting: BENCH_fleet.json carries the merged metrics and timeseries
//    blocks plus fleet-wide SLO attainment.
//  - Telemetry cost: one more serial run with no telemetry attached gives
//    fleet.telemetry_overhead, the warm serial run's simulation time
//    (construction, Start and RunUntil; no checks or exports) with telemetry
//    over the same without it. Without telemetry no overload is detected, so
//    that run is exempt from the migration and determinism checks.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/check/table_verifier.h"
#include "src/harness/fleet_scenario.h"

using namespace tableau;
using namespace tableau::bench;

namespace {

struct FleetRunResult {
  std::uint64_t fingerprint = 0;
  std::string metrics_json;
  std::string timeseries_json;
  fleet::Cluster::SloSummary slo;
  int migrations = 0;
  bool destination_verified = false;
  double sim_ms = 0;   // Cluster construction, Start and RunUntil.
  double wall_ms = 0;  // sim_ms plus the exports and the migration oracle.
};

FleetScenarioConfig BenchConfig() {
  FleetScenarioConfig config;
  config.num_hosts = 64;
  config.cpus_per_host = 32;
  config.cores_per_socket = 8;
  config.slots_per_core = 4;  // 64 * 32 * 4 = 8,192 vCPU slots fleet-wide.
  config.num_vms = 1024;
  config.utilization = 0.25;
  config.requests_per_sec = 200;
  config.service_ns = 500 * kMicrosecond;
  config.latency_goal = 20 * kMillisecond;
  // Scripted overload: VM 0 quadruples its per-request service demand at
  // t=100ms — 0.4 cores of demand against a quarter-core reservation, the
  // sustained burn the detector must migrate away.
  config.surge_vms = 1;
  config.surge_at = 100 * kMillisecond;
  config.surge_factor = 4.0;
  config.min_requests_before_migration = 20;
  config.seed = 1;
  return config;
}

FleetRunResult RunFleet(const FleetScenarioConfig& config, TimeNs duration,
                        bool attach_telemetry = true) {
  const auto wall_start = std::chrono::steady_clock::now();
  fleet::ClusterConfig cluster_config = BuildFleetConfig(config);
  cluster_config.host.attach_telemetry = attach_telemetry;
  fleet::Cluster cluster(cluster_config);
  cluster.Start();
  cluster.RunUntil(duration);
  const auto sim_end = std::chrono::steady_clock::now();

  FleetRunResult result;
  result.sim_ms =
      std::chrono::duration<double, std::milli>(sim_end - wall_start).count();
  result.fingerprint = cluster.Fingerprint();
  result.metrics_json = cluster.MergedMetrics().ToJson(/*indent=*/2);
  result.timeseries_json = cluster.MergedTimeSeries().ToJson(/*indent=*/2);
  result.slo = cluster.Slo();
  result.migrations = static_cast<int>(cluster.migrations().size());
  // Migration oracle: every destination host's live table must still satisfy
  // the full reservation contract (src/check).
  result.destination_verified = result.migrations > 0;
  for (const fleet::Cluster::MigrationRecord& migration : cluster.migrations()) {
    fleet::Host& destination = cluster.host(migration.to);
    if (!destination.plan().success ||
        !check::VerifyPlan(destination.plan(), destination.planner_config()).empty()) {
      result.destination_verified = false;
    }
  }
  result.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                wall_start)
          .count();
  return result;
}

}  // namespace

int main() {
  const TimeNs duration = MeasureDuration(500 * kMillisecond);
  const FleetScenarioConfig base = BenchConfig();

  PrintHeader("Fleet: 64 hosts x 32 pCPUs x 4 slots (8,192 vCPU slots), " +
              std::to_string(base.num_vms) + " VMs, open loop");

  struct Mode {
    const char* name;
    bool parallel;
    int threads;
  };
  const std::vector<Mode> modes = {
      {"serial", false, 0},
      {"parallel", true, BenchThreads()},
      {"repeat", false, 0},  // Serial again: run-to-run repeatability.
  };

  BenchJson json("fleet");
  std::vector<FleetRunResult> runs;
  std::printf("%-10s %14s %10s %10s %10s %8s %10s\n", "mode", "requests", "misses",
              "attain", "worst vm", "migr", "wall");
  for (const Mode& mode : modes) {
    FleetScenarioConfig config = base;
    config.parallel = mode.parallel;
    config.num_threads = mode.threads;
    runs.push_back(RunFleet(config, duration));
    const FleetRunResult& run = runs.back();
    std::printf("%-10s %14llu %10llu %9.4f%% %9.4f%% %8d %8.0fms\n", mode.name,
                static_cast<unsigned long long>(run.slo.requests),
                static_cast<unsigned long long>(run.slo.misses),
                100.0 * run.slo.attainment, 100.0 * run.slo.worst_vm_attainment,
                run.migrations, run.wall_ms);
    const std::string prefix = std::string("fleet.") + mode.name;
    json.Add(prefix + ".wall_ms", run.wall_ms);
    json.Add(prefix + ".fingerprint_lo32",
             static_cast<double>(run.fingerprint & 0xffffffffull));
  }

  // Telemetry off, serial, after the warm "repeat" run it is compared with.
  const FleetRunResult off = RunFleet(base, duration, /*attach_telemetry=*/false);
  std::printf("%-10s %14llu %10llu %9.4f%% %9.4f%% %8d %8.0fms\n", "telem_off",
              static_cast<unsigned long long>(off.slo.requests),
              static_cast<unsigned long long>(off.slo.misses), 100.0 * off.slo.attainment,
              100.0 * off.slo.worst_vm_attainment, off.migrations, off.wall_ms);
  const double telemetry_overhead = runs.back().sim_ms / off.sim_ms;
  std::printf("telemetry overhead (repeat / telem_off simulation time, %.0f / %.0f ms): "
              "%.2fx\n",
              runs.back().sim_ms, off.sim_ms, telemetry_overhead);
  json.Add("fleet.repeat.sim_ms", runs.back().sim_ms);
  json.Add("fleet.telemetry_off.sim_ms", off.sim_ms);
  json.Add("fleet.telemetry_overhead", telemetry_overhead);

  const FleetRunResult& serial = runs.front();
  bool deterministic = true;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].fingerprint != serial.fingerprint ||
        runs[i].metrics_json != serial.metrics_json) {
      deterministic = false;
      std::printf("DETERMINISM VIOLATION: %s differs from serial\n", modes[i].name);
    }
  }
  std::printf("determinism (fingerprint + metrics, all modes): %s\n",
              deterministic ? "ok" : "VIOLATED");
  std::printf("scripted overload -> migrations: %d, destination tables verified: %s\n",
              serial.migrations, serial.destination_verified ? "ok" : "FAILED");

  json.Add("fleet.vms_admitted", serial.slo.vms_admitted);
  json.Add("fleet.vms_rejected", serial.slo.vms_rejected);
  json.Add("fleet.requests", static_cast<double>(serial.slo.requests));
  json.Add("fleet.misses", static_cast<double>(serial.slo.misses));
  json.Add("fleet.slo_attainment", serial.slo.attainment);
  json.Add("fleet.worst_vm_attainment", serial.slo.worst_vm_attainment);
  json.Add("fleet.migrations", serial.migrations);
  json.Add("fleet.deterministic", deterministic ? 1 : 0);
  json.Add("fleet.migration_destination_verified",
           serial.destination_verified ? 1 : 0);
  json.AddRawBlock("fleet_metrics", serial.metrics_json);
  json.AddRawBlock("timeseries", serial.timeseries_json);
  json.Write();

  return (deterministic && serial.migrations > 0 && serial.destination_verified) ? 0
                                                                                 : 1;
}
