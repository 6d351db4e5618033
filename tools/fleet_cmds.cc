// `tableau fleet` and `tableau adapt`: the front end to the fleet simulation
// (a FleetScenarioConfig run on a fleet::Cluster with the placement,
// migration and adaptation control plane).
//
//   tableau fleet run|describe [flags]   Run and print the fleet summary;
//                                        describe adds per-host placement
//                                        and every VM's control-plane state.
//   tableau adapt run|describe [flags]   The same on an elastic diurnal fleet
//                                        with the adaptive controller on;
//                                        describe prints every VM's
//                                        reservation.
//
// Both share the fleet-shape, stream, surge and execution-mode flags,
// --json (merged metrics snapshot out) and --check-determinism, which
// re-runs serial, parallel and a serial repeat and exits 1 unless
// fingerprints, merged metrics and resize counts are byte-identical.
// `adapt` adds the window, demand-shape, flash-crowd and controller-policy
// flags; `fleet` adds --arrival-spread-ms and --first-fit.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/fleet_scenario.h"
#include "tools/cli.h"

namespace tableau::cli {
namespace {

// adapt's defaults mirror bench_adaptive's elastic diurnal arm: a fleet
// whose admission cap binds before its slot pool, staggered diurnal demand,
// and a control cadence of at least two table rounds so every resize
// engages before the next tick can supersede it.
FleetScenarioConfig ElasticDefaults() {
  FleetScenarioConfig config;
  config.num_hosts = 4;
  config.cpus_per_host = 8;
  config.cores_per_socket = 4;
  config.slots_per_core = 2;
  config.control_period = 210 * kMillisecond;
  config.admission_latency = 210 * kMillisecond;
  config.migrate_burn_threshold = 1e9;
  config.num_vms = 56;
  config.utilization = 0.5;
  config.latency_goal = 40 * kMillisecond;
  config.requests_per_sec = 400;
  config.service_ns = 1000 * kMicrosecond;
  config.shape = fleet::DemandShape::kDiurnal;
  config.shape_period = 8000 * kMillisecond;
  config.shape_min = 0.2;
  config.shape_max = 0.8;
  config.stagger_phases = true;
  config.adaptive = true;
  config.adapt_policy.cooldown_windows = 2;
  config.seed = 1;
  return config;
}

std::unique_ptr<fleet::Cluster> RunFleet(const FleetScenarioConfig& config,
                                         TimeNs duration) {
  auto cluster = std::make_unique<fleet::Cluster>(BuildFleetConfig(config));
  cluster->Start();
  cluster->RunUntil(duration);
  return cluster;
}

// What the summaries and the determinism check compare across runs.
struct FleetRun {
  std::uint64_t fingerprint = 0;
  std::string metrics_json;
  fleet::Cluster::SloSummary slo;
  unsigned long long migrations = 0;
  unsigned long long resizes = 0;
};

FleetRun Collect(fleet::Cluster& cluster) {
  FleetRun run;
  run.fingerprint = cluster.Fingerprint();
  run.metrics_json = cluster.MergedMetrics().ToJson(/*indent=*/2);
  run.slo = cluster.Slo();
  run.migrations = cluster.migrations().size();
  run.resizes = cluster.resizes();
  return run;
}

// Sums the adaptive controllers' decision counters over all hosts and
// prints the packing and control lines.
void PrintControlSummary(fleet::Cluster& cluster, const FleetRun& run) {
  std::printf("packing: %d admitted, %d rejected, avg committed fraction %.4f\n",
              run.slo.vms_admitted, run.slo.vms_rejected, cluster.AvgCommittedFraction());
  adapt::AdaptiveController::Counters totals;
  for (int h = 0; h < cluster.num_hosts(); ++h) {
    if (const adapt::AdaptiveController* controller = cluster.host(h).adaptive()) {
      const adapt::AdaptiveController::Counters& counters = controller->counters();
      totals.observations += counters.observations;
      totals.no_data += counters.no_data;
      totals.saturated += counters.saturated;
      totals.cooldown_holds += counters.cooldown_holds;
      totals.grows += counters.grows;
      totals.shrinks += counters.shrinks;
      totals.rejects += counters.rejects;
    }
  }
  std::printf(
      "control: %llu resizes installed (%llu grows, %llu shrinks, %llu rejects), "
      "%llu observations (%llu no-data, %llu saturated, %llu cooldown holds)\n",
      run.resizes, static_cast<unsigned long long>(totals.grows),
      static_cast<unsigned long long>(totals.shrinks),
      static_cast<unsigned long long>(totals.rejects),
      static_cast<unsigned long long>(totals.observations),
      static_cast<unsigned long long>(totals.no_data),
      static_cast<unsigned long long>(totals.saturated),
      static_cast<unsigned long long>(totals.cooldown_holds));
}

void PrintSummary(fleet::Cluster& cluster, const FleetRun& run, bool adapt) {
  if (!adapt) {
    std::printf("fleet: %d hosts, %d VMs admitted, %d rejected, %llu migrations\n",
                cluster.num_hosts(), run.slo.vms_admitted, run.slo.vms_rejected,
                run.migrations);
  }
  std::printf("%-*s%llu requests, %llu misses, attainment %.4f%% (worst VM %.4f%%)\n",
              adapt ? 9 : 7, "slo:", static_cast<unsigned long long>(run.slo.requests),
              static_cast<unsigned long long>(run.slo.misses), 100.0 * run.slo.attainment,
              100.0 * run.slo.worst_vm_attainment);
  if (adapt) {
    PrintControlSummary(cluster, run);
  }
  std::printf("fingerprint: %016llx\n", static_cast<unsigned long long>(run.fingerprint));
}

void Describe(fleet::Cluster& cluster, const FleetScenarioConfig& config, bool adapt) {
  for (int h = 0; h < cluster.num_hosts(); ++h) {
    fleet::Host& host = cluster.host(h);
    std::printf("host %-3d %2d pCPUs, %3d/%3d slots free, committed %5.2f cores", h,
                host.config().num_cpus, host.free_slots(), host.num_slots(),
                host.committed());
    if (!adapt && host.plan().success) {
      std::printf(", table: %s, %zu reservations", PlanMethodName(host.plan().method),
                  host.plan().requests.size());
    } else if (!adapt) {
      std::printf(", table: empty");
    }
    std::printf("\n");
  }
  static constexpr const char* kStatusNames[] = {"pending", "active", "draining",
                                                 "rejected"};
  for (int vm = 0; vm < config.num_vms; ++vm) {
    const fleet::Cluster::VmState& state = cluster.vm_state(vm);
    const fleet::VmStream& stream = cluster.stream(vm);
    const auto completed = static_cast<unsigned long long>(stream.completed());
    const auto misses = static_cast<unsigned long long>(stream.misses());
    if (!adapt) {
      std::printf("vm %-4d %-8s host %-3d slot %-3d migrations %d  posted %llu "
                  "completed %llu misses %llu\n",
                  vm, kStatusNames[static_cast<int>(state.status)], state.host,
                  state.slot, state.migrations,
                  static_cast<unsigned long long>(stream.posted()), completed, misses);
    } else if (state.status != fleet::Cluster::VmState::Status::kActive) {
      std::printf("vm %-4d rejected\n", vm);
    } else {
      const adapt::AdaptiveController* controller = cluster.host(state.host).adaptive();
      const double reservation = controller != nullptr && controller->bound(state.slot)
                                     ? controller->reservation(state.slot)
                                     : config.utilization;
      std::printf("vm %-4d host %-3d slot %-3d reservation %.5f (admitted %.5f)  "
                  "completed %llu misses %llu\n",
                  vm, state.host, state.slot, reservation, config.utilization,
                  completed, misses);
    }
  }
}

int CheckDeterminism(const FleetScenarioConfig& base, TimeNs duration, bool adapt) {
  struct Mode {
    const char* name;
    bool parallel;
  };
  static constexpr Mode kModes[] = {
      {"serial", false},
      {"parallel", true},
      {"repeat", false},
  };
  std::vector<FleetRun> runs;
  for (const Mode& mode : kModes) {
    FleetScenarioConfig config = base;
    config.parallel = mode.parallel;
    if (mode.parallel && config.num_threads <= 0) {
      config.num_threads = 2;
    }
    runs.push_back(Collect(*RunFleet(config, duration)));
    const FleetRun& run = runs.back();
    std::printf("%-10s fingerprint %016llx  requests %llu  %s %llu\n", mode.name,
                static_cast<unsigned long long>(run.fingerprint),
                static_cast<unsigned long long>(run.slo.requests),
                adapt ? "resizes" : "migrations", adapt ? run.resizes : run.migrations);
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].fingerprint != runs[0].fingerprint ||
        runs[i].metrics_json != runs[0].metrics_json ||
        runs[i].resizes != runs[0].resizes) {
      std::fprintf(stderr, "determinism violation: %s differs from serial\n",
                   kModes[i].name);
      return 1;
    }
  }
  std::printf("determinism: ok (%s identical)\n",
              adapt ? "fingerprints, merged metrics, resizes"
                    : "fingerprints and merged metrics");
  return 0;
}

}  // namespace

int FleetMain(int argc, char** argv, bool adapt) {
  FleetScenarioConfig config = adapt ? ElasticDefaults() : FleetScenarioConfig{};
  TimeNs duration = adapt ? 10 * kSecond : kSecond / 2;
  bool check_determinism = false;
  std::string json_out;
  FlagSet flags(adapt ? "adapt run|describe" : "fleet run|describe");
  flags.Value("--hosts", &config.num_hosts);
  flags.Value("--cpus", &config.cpus_per_host);
  flags.Value("--cores-per-socket", &config.cores_per_socket);
  flags.Value("--slots", &config.slots_per_core);
  flags.Value("--vms", &config.num_vms);
  flags.Value("--utilization", &config.utilization);
  flags.Value("--rps", &config.requests_per_sec);
  flags.Duration("--service-us", &config.service_ns, kMicrosecond);
  flags.Duration("--latency-goal-ms", &config.latency_goal, kMillisecond);
  flags.Value("--surge-vms", &config.surge_vms);
  flags.Duration("--surge-at-ms", &config.surge_at, kMillisecond);
  flags.Value("--surge-factor", &config.surge_factor);
  if (adapt) {
    flags.Duration("--window-ms", &config.control_period, kMillisecond);
    flags.Duration("--shape-period-ms", &config.shape_period, kMillisecond);
    flags.Value("--shape-min", &config.shape_min);
    flags.Value("--shape-max", &config.shape_max);
    flags.Duration("--surge-until-ms", &config.surge_until, kMillisecond);
    flags.Value("--headroom", &config.adapt_policy.headroom);
    flags.Value("--cooldown", &config.adapt_policy.cooldown_windows);
    flags.Value("--quantize", &config.adapt_policy.quantize);
    flags.Value("--min-utilization", &config.adapt_min_utilization);
    flags.Value("--max-utilization", &config.adapt_max_utilization);
    flags.Switch("--static", [&config] { config.adaptive = false; });
  } else {
    flags.Duration("--arrival-spread-ms", &config.arrival_spread, kMillisecond);
    flags.Switch("--first-fit",
                 [&config] { config.placement = fleet::PlacementPolicy::kFirstFit; });
  }
  flags.Duration("--seconds", &duration, kSecond);
  flags.Value("--seed", &config.seed);
  flags.Switch("--parallel", [&config] { config.parallel = true; });
  flags.Value("--threads", &config.num_threads);
  flags.Value("--json", &json_out);
  flags.Switch("--check-determinism", [&check_determinism] { check_determinism = true; });
  const std::string mode = flags.Parse(argc, argv, 1)[0];
  // Values that parse but are out of range would abort in a library check;
  // the negated comparisons also reject NaN.
  const adapt::PolicyConfig& policy = config.adapt_policy;
  const bool in_range =
      config.num_hosts >= 1 && config.num_vms >= 0 && config.cpus_per_host >= 1 &&
      config.cores_per_socket >= 1 && config.slots_per_core >= 1 &&
      config.requests_per_sec > 0 && config.service_ns > 0 && config.control_period > 0 &&
      policy.cooldown_windows >= 0 && policy.quantize > 0 &&
      config.adapt_min_utilization > 0 &&
      config.adapt_min_utilization <= config.adapt_max_utilization && policy.headroom >= 1;
  if ((mode != "run" && mode != "describe") || !in_range) {
    flags.Usage();
  }

  if (check_determinism) {
    return CheckDeterminism(config, duration, adapt);
  }
  const std::unique_ptr<fleet::Cluster> cluster = RunFleet(config, duration);
  const FleetRun run = Collect(*cluster);
  PrintSummary(*cluster, run, adapt);
  if (mode == "describe") {
    Describe(*cluster, config, adapt);
  }
  if (!json_out.empty()) {
    if (!WriteFile(json_out, run.metrics_json + "\n")) {
      return 1;
    }
    std::printf("wrote merged metrics to %s\n", json_out.c_str());
  }
  return 0;
}

}  // namespace tableau::cli
