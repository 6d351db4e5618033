#include "src/harness/fleet_scenario.h"

#include "src/common/check.h"
#include "src/common/rng.h"

namespace tableau {

fleet::ClusterConfig BuildFleetConfig(const FleetScenarioConfig& config) {
  TABLEAU_CHECK(config.num_hosts >= 1 && config.num_vms >= 0);
  fleet::ClusterConfig cluster;
  cluster.num_hosts = config.num_hosts;
  cluster.sim.parallel = config.parallel;
  cluster.sim.num_threads = config.num_threads;
  cluster.control_period = config.control_period;
  cluster.placement = config.placement;
  cluster.max_committed = config.max_committed;
  cluster.admission_latency = config.admission_latency;
  cluster.migrate_burn_threshold = config.migrate_burn_threshold;
  cluster.min_requests_before_migration = config.min_requests_before_migration;

  cluster.host.num_cpus = config.cpus_per_host;
  cluster.host.cores_per_socket = config.cores_per_socket;
  cluster.host.slots_per_core = config.slots_per_core;
  // SLO windows align with control ticks: the cadence sample at each
  // barrier closes exactly one telemetry window, so the burn-rate verdicts
  // the control plane reads are fresh and mode-independent.
  cluster.host.telemetry.window_ns = config.control_period;
  cluster.host.telemetry.slo.window_ns = config.control_period;
  cluster.host.telemetry.slo.target_latency_ns = config.latency_goal;
  // A fleet host has hundreds of slots and no vantage VM: no per-vCPU
  // series and no span histograms (the per-VM SLO tracker and machine-wide
  // series carry the signal; the adaptive controller's window views come
  // from the attributor, not the recorder).
  cluster.host.telemetry.vantage_vcpus = 0;
  cluster.host.max_latency_degradations = config.max_latency_degradations;
  cluster.host.adaptive = config.adaptive;
  cluster.host.adapt_policy = config.adapt_policy;
  cluster.host.adapt_min_utilization = config.adapt_min_utilization;
  cluster.host.adapt_max_utilization = config.adapt_max_utilization;

  // Arrival jitter is the only random input, drawn from one seeded stream
  // in vm order — identical across execution modes by construction.
  Rng rng(config.seed);
  cluster.vms.reserve(static_cast<std::size_t>(config.num_vms));
  for (int vm = 0; vm < config.num_vms; ++vm) {
    fleet::VmReservation spec;
    spec.vm = vm;
    spec.utilization = config.utilization;
    spec.latency_goal = config.latency_goal;
    spec.requests_per_sec = config.requests_per_sec;
    spec.service_ns = config.service_ns;
    if (config.arrival_spread > 0) {
      spec.arrival = rng.UniformInt(0, config.arrival_spread);
    }
    if (vm < config.surge_vms) {
      spec.surge_at = config.surge_at;
      spec.surge_until = config.surge_until;
      spec.surge_factor = config.surge_factor;
    }
    spec.shape = config.shape;
    spec.shape_period = config.shape_period;
    spec.shape_min = config.shape_min;
    spec.shape_max = config.shape_max;
    if (config.stagger_phases && config.num_vms > 0) {
      spec.shape_phase = static_cast<TimeNs>(
          (static_cast<__int128>(config.shape_period) * vm) / config.num_vms);
    }
    cluster.vms.push_back(spec);
  }
  return cluster;
}

}  // namespace tableau
