// Elastic vs static reservations under time-varying demand: the acceptance
// experiment for the closed-loop adaptive controller (src/adapt).
//
// Arms (same fleet, same VM stream, same seed — only the controller differs):
//  - static: every VM keeps its admitted reservation forever.
//  - elastic: host.adaptive shrinks over-provisioned VMs toward their
//    predicted demand (p99-floored), freeing committed capacity that
//    admission hands to a second arrival wave the static arm must reject.
//  - flash: flat demand with a bounded surge; the controller must probe up
//    through saturation during the surge and relax back down afterwards.
//
// Control cadence: the dispatcher engages a pushed table at the current
// table's round wrap — up to two hyperperiods (~205ms) after the push, and
// a denser install stream keeps deferring the switch. The scenario therefore
// runs its control loop at 210ms (every admission/resize table is live
// before the next tick can supersede it) and models VM boot with a 210ms
// admission latency, so a newly placed VM's stream only starts once its
// slices are dispatchable (capped hosts run no second level — a vCPU absent
// from the live table gets zero CPU).
//
// Claims checked (exit code gates them):
//  - Packing: the elastic arm admits strictly more VMs (or holds strictly
//    less reserved capacity) than the static arm at no worse fleet-wide SLO
//    attainment.
//  - Reactivity: the flash crowd makes the controller both grow and shrink.
//  - Safety: every host's live table passes the TableVerifier at the end of
//    every arm (and TABLEAU_VERIFY_TABLES=1 audits each intermediate Solve).
//  - Determinism: the elastic diurnal run has byte-identical fingerprint and
//    merged metrics across serial and parallel execution and across
//    repeated runs.
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

struct AdaptiveRunResult {
  std::uint64_t fingerprint = 0;
  std::string metrics_json;
  fleet::Cluster::SloSummary slo;
  std::uint64_t resizes = 0;
  double avg_committed = 0;
  std::uint64_t grows = 0;
  std::uint64_t shrinks = 0;
  int verify_violations = 0;
  double wall_ms = 0;
};

// Shared fleet shape: 4 hosts x 8 pCPUs x 2 slots per core = 64 vCPU slots.
// Every VM asks for U=0.5, so the admission cap (0.9 * 8 cores) saturates at
// 14 VMs per host with slots to spare — packing is limited by reserved
// capacity, exactly the waste elasticity reclaims.
FleetScenarioConfig BaseConfig() {
  FleetScenarioConfig config;
  config.num_hosts = 4;
  config.cpus_per_host = 8;
  config.cores_per_socket = 4;
  config.slots_per_core = 2;
  config.control_period = 210 * kMillisecond;   // >= two table rounds.
  config.admission_latency = 210 * kMillisecond;
  config.migrate_burn_threshold = 1e9;  // Isolate the resize loop.
  config.utilization = 0.5;
  config.latency_goal = 40 * kMillisecond;
  config.requests_per_sec = 400;
  config.seed = 1;
  return config;
}

// Diurnal packing arm: each VM's demand ramps 0.08..0.32 cores over an 8s
// triangle with phases staggered across the fleet. Wave 1 (56 VMs) fills
// every host to the admission cap at t=0; wave 2 (24 VMs) arrives at 30% of
// the run, after the controller has shrunk wave 1 toward demand. The 2-window
// cooldown keeps a freshly shrunk reservation from going stale by more than
// its headroom margin while the ramp climbs (cooldown 4 at this cadence lags
// ~1.05s — enough for the trough-phase ramp to overtake the reservation).
constexpr int kWave1Vms = 56;

FleetScenarioConfig DiurnalConfig(bool adaptive) {
  FleetScenarioConfig config = BaseConfig();
  config.num_vms = 80;
  config.service_ns = 1000 * kMicrosecond;  // Peak demand 0.32 of a core.
  config.shape = fleet::DemandShape::kDiurnal;
  config.shape_period = 8000 * kMillisecond;
  config.shape_min = 0.2;
  config.shape_max = 0.8;
  config.stagger_phases = true;
  config.adaptive = adaptive;
  config.adapt_policy.cooldown_windows = 2;
  return config;
}

// Flash-crowd arm: flat demand at 0.2 of a core (the controller shrinks the
// 0.5 reservations), then a quarter of the fleet quadruples its demand over
// [20%, 50%) of the run — saturation growth must kick in, and the shorter
// predictor ring lets the p99 shrink floor clear the surge before the run
// ends so the reclaim leg is exercised too.
FleetScenarioConfig FlashCrowdConfig(TimeNs duration) {
  FleetScenarioConfig config = BaseConfig();
  config.num_vms = 40;
  config.service_ns = 500 * kMicrosecond;  // Flat demand 0.2 of a core.
  config.surge_vms = 10;
  config.surge_at = duration / 5;
  config.surge_until = duration / 2;
  config.surge_factor = 4.0;
  config.adaptive = true;
  config.adapt_policy.predictor.history = 16;
  return config;
}

AdaptiveRunResult RunArm(const FleetScenarioConfig& config, TimeNs duration,
                         TimeNs second_wave_at) {
  const auto wall_start = std::chrono::steady_clock::now();
  fleet::ClusterConfig cluster_config = BuildFleetConfig(config);
  if (second_wave_at > 0) {
    for (std::size_t vm = kWave1Vms; vm < cluster_config.vms.size(); ++vm) {
      cluster_config.vms[vm].arrival = second_wave_at;
    }
  }
  fleet::Cluster cluster(cluster_config);
  cluster.Start();
  cluster.RunUntil(duration);

  AdaptiveRunResult result;
  result.fingerprint = cluster.Fingerprint();
  result.metrics_json = cluster.MergedMetrics().ToJson(/*indent=*/2);
  result.slo = cluster.Slo();
  result.resizes = cluster.resizes();
  result.avg_committed = cluster.AvgCommittedFraction();
  for (int h = 0; h < cluster.num_hosts(); ++h) {
    fleet::Host& host = cluster.host(h);
    // Controller counters are per host; the merged gauges take the max
    // across hosts, so fleet totals must be summed here.
    if (host.adaptive() != nullptr) {
      result.grows += host.adaptive()->counters().grows;
      result.shrinks += host.adaptive()->counters().shrinks;
    }
    if (host.plan().success &&
        !check::VerifyPlan(host.plan(), host.planner_config()).empty()) {
      ++result.verify_violations;
    }
  }
  result.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                wall_start)
          .count();
  return result;
}

void PrintRow(const char* name, const AdaptiveRunResult& run) {
  std::printf("%-10s %8d %8d %9.4f%% %9.3f %8llu %7llu %7llu %8.0fms\n", name,
              run.slo.vms_admitted, run.slo.vms_rejected, 100.0 * run.slo.attainment,
              run.avg_committed, static_cast<unsigned long long>(run.resizes),
              static_cast<unsigned long long>(run.grows),
              static_cast<unsigned long long>(run.shrinks), run.wall_ms);
}

void AddArm(BenchJson& json, const std::string& prefix, const AdaptiveRunResult& run) {
  json.Add(prefix + ".vms_admitted", run.slo.vms_admitted);
  json.Add(prefix + ".vms_rejected", run.slo.vms_rejected);
  json.Add(prefix + ".requests", static_cast<double>(run.slo.requests));
  json.Add(prefix + ".misses", static_cast<double>(run.slo.misses));
  json.Add(prefix + ".slo_attainment", run.slo.attainment);
  json.Add(prefix + ".worst_vm_attainment", run.slo.worst_vm_attainment);
  json.Add(prefix + ".avg_committed_fraction", run.avg_committed);
  json.Add(prefix + ".resizes", static_cast<double>(run.resizes));
  json.Add(prefix + ".grows", static_cast<double>(run.grows));
  json.Add(prefix + ".shrinks", static_cast<double>(run.shrinks));
  json.Add(prefix + ".verify_violations", run.verify_violations);
  json.Add(prefix + ".wall_ms", run.wall_ms);
}

}  // namespace

int main() {
  // The waves, the diurnal period, and the p99 shrink-floor ring are sized
  // for the 10s default; much shorter runs have no time to shrink and the
  // gates fail vacuously.
  const TimeNs duration = MeasureDuration(10 * kSecond);
  const TimeNs second_wave_at = (duration / 10) * 3;

  PrintHeader(
      "Adaptive reservations: 4 hosts x 8 pCPUs, 80 VMs @ U=0.5, diurnal demand");
  std::printf("%-10s %8s %8s %10s %9s %8s %7s %7s %10s\n", "arm", "admit", "reject",
              "attain", "avg comm", "resizes", "grows", "shrinks", "wall");

  const AdaptiveRunResult arm_static =
      RunArm(DiurnalConfig(/*adaptive=*/false), duration, second_wave_at);
  PrintRow("static", arm_static);
  const AdaptiveRunResult elastic =
      RunArm(DiurnalConfig(/*adaptive=*/true), duration, second_wave_at);
  PrintRow("elastic", elastic);
  const AdaptiveRunResult flash =
      RunArm(FlashCrowdConfig(duration), duration, /*second_wave_at=*/0);
  PrintRow("flash", flash);

  // --- Gate 1: packing at no SLO cost (the tentpole's acceptance bar) ---
  const bool slo_held = elastic.slo.attainment >= arm_static.slo.attainment;
  const bool denser = elastic.slo.vms_admitted > arm_static.slo.vms_admitted ||
                      elastic.avg_committed < arm_static.avg_committed;
  const bool packing_ok = slo_held && denser && elastic.resizes > 0;
  std::printf("packing gate (attainment %.4f%% >= %.4f%%, admitted %d > %d or "
              "committed %.3f < %.3f, resizes %llu > 0): %s\n",
              100.0 * elastic.slo.attainment, 100.0 * arm_static.slo.attainment,
              elastic.slo.vms_admitted, arm_static.slo.vms_admitted,
              elastic.avg_committed, arm_static.avg_committed,
              static_cast<unsigned long long>(elastic.resizes),
              packing_ok ? "ok" : "FAILED");

  // --- Gate 2: the flash crowd exercises both directions of the loop ---
  const bool flash_ok = flash.grows > 0 && flash.shrinks > 0;
  std::printf("flash-crowd gate (grows %llu > 0 and shrinks %llu > 0): %s\n",
              static_cast<unsigned long long>(flash.grows),
              static_cast<unsigned long long>(flash.shrinks),
              flash_ok ? "ok" : "FAILED");

  // --- Gate 3: every final table passes the verifier in every arm ---
  const int violations =
      arm_static.verify_violations + elastic.verify_violations + flash.verify_violations;
  std::printf("table verification (final plans, all arms): %s\n",
              violations == 0 ? "ok" : "VIOLATED");

  // --- Gate 4: the elastic loop stays execution-mode independent ---
  struct Mode {
    const char* name;
    bool parallel;
    int threads;
  };
  const std::vector<Mode> modes = {
      {"parallel", true, BenchThreads()},
      {"repeat", false, 0},
  };
  bool deterministic = true;
  for (const Mode& mode : modes) {
    FleetScenarioConfig config = DiurnalConfig(/*adaptive=*/true);
    config.parallel = mode.parallel;
    config.num_threads = mode.threads;
    const AdaptiveRunResult run = RunArm(config, duration, second_wave_at);
    if (run.fingerprint != elastic.fingerprint ||
        run.metrics_json != elastic.metrics_json || run.resizes != elastic.resizes) {
      deterministic = false;
      std::printf("DETERMINISM VIOLATION: %s differs from serial\n", mode.name);
    }
  }
  std::printf("determinism (fingerprint + metrics + resizes, all modes): %s\n",
              deterministic ? "ok" : "VIOLATED");

  BenchJson json("adaptive");
  AddArm(json, "adaptive.static", arm_static);
  AddArm(json, "adaptive.elastic", elastic);
  AddArm(json, "adaptive.flash", flash);
  json.Add("adaptive.packing_gate", packing_ok ? 1 : 0);
  json.Add("adaptive.flash_gate", flash_ok ? 1 : 0);
  json.Add("adaptive.verify_violations", violations);
  json.Add("adaptive.deterministic", deterministic ? 1 : 0);
  json.AddRawBlock("elastic_metrics", elastic.metrics_json);
  json.Write();

  return (packing_ok && flash_ok && violations == 0 && deterministic) ? 0 : 1;
}
