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
//  - Telemetry cost: alternating serial runs with and without telemetry give
//    fleet.telemetry_overhead, the median over the pairs of one run's
//    simulation time (construction, Start and RunUntil; no checks or
//    exports) with telemetry over its partner's without, with the minimum
//    and maximum beside it. Without telemetry no overload is detected, so
//    those runs are exempt from the migration and determinism checks.
//  - Memory: fleet.peak_rss_mb is the process's resident high-water mark
//    (VmHWM) through the first, cold serial run; the bench fails above
//    kPeakRssCeilingMb.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
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

// Resident high-water mark of this process in MiB, from VmHWM in
// /proc/self/status (which an exec resets, unlike getrusage's ru_maxrss);
// 0 when it cannot be read.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

// Ceiling on fleet.peak_rss_mb at the default run length in an
// uninstrumented build, ~25% above the 21.2 MiB measured on x86-64 Linux
// (glibc 2.36). Eagerly zero-filled time-series blocks (36.9 MiB) or per-slot
// span histograms (~80 MiB) exceed it. The high-water mark is read after one
// fleet because every later run raises it by what the allocator kept from
// the runs before (to ~60 MiB after this bench's 13 runs).
constexpr double kPeakRssCeilingMb = 27;

// Sanitizer runtimes (shadow memory, quarantine) multiply resident memory.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

}  // namespace

int main() {
  constexpr TimeNs kDefaultDuration = 500 * kMillisecond;
  const TimeNs duration = MeasureDuration(kDefaultDuration);
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
  double peak_rss_mb = 0;
  std::printf("%-10s %14s %10s %10s %10s %8s %10s\n", "mode", "requests", "misses",
              "attain", "worst vm", "migr", "wall");
  for (const Mode& mode : modes) {
    FleetScenarioConfig config = base;
    config.parallel = mode.parallel;
    config.num_threads = mode.threads;
    runs.push_back(RunFleet(config, duration));
    if (runs.size() == 1) {
      peak_rss_mb = PeakRssMb();
    }
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

  // Telemetry on/off pairs, serial, after the warm "repeat" run. Which side
  // runs first alternates, so a drift in the host's speed falls on both.
  constexpr int kOverheadPairs = 5;
  std::vector<double> on_ms;
  std::vector<double> off_ms;
  std::vector<double> ratios;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    const bool on_first = pair % 2 == 0;
    const double first = RunFleet(base, duration, on_first).sim_ms;
    const double second = RunFleet(base, duration, !on_first).sim_ms;
    on_ms.push_back(on_first ? first : second);
    off_ms.push_back(on_first ? second : first);
    ratios.push_back(on_ms.back() / off_ms.back());
    std::printf("telemetry pair %d (%s first): on %.0f ms, off %.0f ms, %.2fx\n", pair + 1,
                on_first ? "on" : "off", on_ms.back(), off_ms.back(), ratios.back());
  }
  const auto median = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];  // kOverheadPairs is odd.
  };
  const double overhead = median(ratios);
  const auto [min_ratio, max_ratio] = std::minmax_element(ratios.begin(), ratios.end());
  std::printf("telemetry overhead (on / off simulation time, median of %d alternating pairs): "
              "%.2fx (min %.2fx, max %.2fx)\n",
              kOverheadPairs, overhead, *min_ratio, *max_ratio);
  json.Add("fleet.telemetry_on.sim_ms", median(on_ms));
  json.Add("fleet.telemetry_off.sim_ms", median(off_ms));
  json.Add("fleet.telemetry_overhead", overhead);
  json.Add("fleet.telemetry_overhead_min", *min_ratio);
  json.Add("fleet.telemetry_overhead_max", *max_ratio);

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

  const bool gated = !kSanitized && duration == kDefaultDuration;
  const bool memory_ok = !gated || (peak_rss_mb > 0 && peak_rss_mb <= kPeakRssCeilingMb);
  std::printf("peak RSS (VmHWM after the serial run): %.1f MiB, ceiling %.0f MiB: %s\n",
              peak_rss_mb, kPeakRssCeilingMb,
              !gated ? "not gated (sanitizer build or non-default duration)"
                     : (memory_ok ? "ok" : "EXCEEDED"));
  json.Add("fleet.peak_rss_mb", peak_rss_mb);
  json.Write();

  return (deterministic && serial.migrations > 0 && serial.destination_verified &&
          memory_ok)
             ? 0
             : 1;
}
