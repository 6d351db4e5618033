// Fleet experiment construction: maps a compact experiment description
// (host shape x VM reservation stream) onto a fleet::ClusterConfig. Shared
// by bench_fleet, the `tableau fleet` CLI, and the fleet tests so the
// 64-host determinism scenario is one definition, not three copies.
#ifndef SRC_HARNESS_FLEET_SCENARIO_H_
#define SRC_HARNESS_FLEET_SCENARIO_H_

#include <cstdint>
#include <vector>

#include "src/fleet/cluster.h"

namespace tableau {

struct FleetScenarioConfig {
  // --- Fleet shape ---
  int num_hosts = 4;
  int cpus_per_host = 16;
  int cores_per_socket = 8;
  int slots_per_core = 4;
  // --- Execution mode (determinism: results are byte-identical across all
  // combinations; see ShardedSimulation) ---
  // Has no effect: every host runs on its own engine. Kept only because
  // perfbench/fleet_workloads.cc still assigns it.
  bool sharded = false;
  bool parallel = false;
  int num_threads = 0;
  // --- Control plane ---
  TimeNs control_period = 10 * kMillisecond;
  fleet::PlacementPolicy placement = fleet::PlacementPolicy::kWorstFit;
  double max_committed = 0.9;
  // Placement-decision-to-activation delay (the placement RPC plus guest
  // boot). Scenarios that admit VMs mid-run should keep this at or above
  // two table rounds (~2 * kHyperperiodNs): a pushed table engages at the
  // current table's round wrap, so a shorter delay has the stream posting
  // requests before the VM's slices are live (capped hosts leave it dark).
  TimeNs admission_latency = 200 * kMicrosecond;
  double migrate_burn_threshold = 1.5;
  std::uint64_t min_requests_before_migration = 50;
  // --- VM reservation stream (open-loop constant-rate clients) ---
  int num_vms = 64;
  double utilization = 0.25;
  TimeNs latency_goal = 20 * kMillisecond;
  double requests_per_sec = 200;
  TimeNs service_ns = 500 * kMicrosecond;
  // Arrivals staggered deterministically (seeded Rng) over [0, spread].
  // 0 = all VMs arrive at time zero.
  TimeNs arrival_spread = 0;
  std::uint64_t seed = 1;
  // Scripted overload: the first `surge_vms` VMs multiply their service
  // demand by surge_factor over [surge_at, surge_until) — open-ended by
  // default (the migration trigger); bounded = a flash crowd.
  int surge_vms = 0;
  TimeNs surge_at = kTimeNever;
  TimeNs surge_until = kTimeNever;
  double surge_factor = 1.0;
  // --- Demand shape (diurnal load for the adaptive experiments) ---
  fleet::DemandShape shape = fleet::DemandShape::kConstant;
  TimeNs shape_period = 800 * kMillisecond;
  double shape_min = 1.0;
  double shape_max = 1.0;
  // Spread VM phases evenly across the period so the fleet-wide aggregate
  // stays near the diurnal mean while each VM still swings full-range.
  bool stagger_phases = false;
  // --- Closed-loop adaptive reservations (src/adapt) ---
  bool adaptive = false;
  adapt::PolicyConfig adapt_policy;
  double adapt_min_utilization = 1.0 / 32;
  double adapt_max_utilization = 1.0;
  // Graceful degradation budget for overloaded resizes (PR 4 machinery).
  int max_latency_degradations = 0;
};

// Builds the full cluster configuration: per-host telemetry windows aligned
// with the control period (SLO windows closed at tick barriers) and the VM
// reservation list derived from the stream parameters above.
fleet::ClusterConfig BuildFleetConfig(const FleetScenarioConfig& config);

}  // namespace tableau

#endif  // SRC_HARNESS_FLEET_SCENARIO_H_
