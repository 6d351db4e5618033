// Fleet control-plane properties: execution-mode determinism (serial vs
// parallel with any worker count), one engine per host, placement policy
// behavior, and the live-migration oracle (destination tables pass the
// TableVerifier; no request span is lost across a drain).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/check/table_verifier.h"
#include "src/harness/fleet_scenario.h"

namespace tableau {
namespace {

FleetScenarioConfig SmallFleet() {
  FleetScenarioConfig config;
  config.num_hosts = 4;
  config.cpus_per_host = 4;
  config.cores_per_socket = 2;
  config.slots_per_core = 2;  // 8 slots per host.
  config.num_vms = 12;
  config.utilization = 0.25;
  config.requests_per_sec = 400;
  config.service_ns = 300 * kMicrosecond;
  config.arrival_spread = 30 * kMillisecond;
  config.seed = 7;
  return config;
}

struct FleetRun {
  std::uint64_t fingerprint = 0;
  std::string metrics_json;
  fleet::Cluster::SloSummary slo;
  int migrations = 0;
  std::uint64_t resizes = 0;
};

FleetRun RunFleet(FleetScenarioConfig config, TimeNs duration) {
  fleet::Cluster cluster(BuildFleetConfig(config));
  cluster.Start();
  cluster.RunUntil(duration);
  FleetRun run;
  run.fingerprint = cluster.Fingerprint();
  run.metrics_json = cluster.MergedMetrics().ToJson();
  run.slo = cluster.Slo();
  run.migrations = static_cast<int>(cluster.migrations().size());
  run.resizes = cluster.resizes();
  return run;
}

TEST(FleetDeterminismTest, IdenticalAcrossExecutionModes) {
  const FleetScenarioConfig base = SmallFleet();
  const TimeNs duration = 200 * kMillisecond;

  const FleetRun serial = RunFleet(base, duration);
  EXPECT_GT(serial.slo.requests, 0u);
  EXPECT_EQ(serial.slo.vms_admitted, base.num_vms);

  // Same scenario in parallel with 1, 2, and 4 worker threads. The merged
  // fingerprint and the merged metrics block must be byte-identical to the
  // serial run.
  for (const int threads : {1, 2, 4}) {
    FleetScenarioConfig parallel = base;
    parallel.parallel = true;
    parallel.num_threads = threads;
    const FleetRun run = RunFleet(parallel, duration);
    EXPECT_EQ(run.fingerprint, serial.fingerprint) << "threads=" << threads;
    EXPECT_EQ(run.metrics_json, serial.metrics_json) << "threads=" << threads;
  }

  // Repeatability: the same mode twice is bit-identical too.
  const FleetRun repeat = RunFleet(base, duration);
  EXPECT_EQ(repeat.fingerprint, serial.fingerprint);
  EXPECT_EQ(repeat.metrics_json, serial.metrics_json);
}

TEST(FleetDeterminismTest, OddControlPeriodIdenticalAcrossExecutionModes) {
  // Hosts meet only at control ticks, so any period works as the barrier
  // spacing; 10,030 us is a multiple of no round simulator quantum.
  FleetScenarioConfig base = SmallFleet();
  base.control_period = 10'030 * kMicrosecond;
  const TimeNs duration = 200 * kMillisecond;

  const FleetRun serial = RunFleet(base, duration);
  EXPECT_GT(serial.slo.requests, 0u);
  FleetScenarioConfig parallel = base;
  parallel.parallel = true;
  parallel.num_threads = 3;
  const FleetRun run = RunFleet(parallel, duration);
  EXPECT_EQ(run.fingerprint, serial.fingerprint);
  EXPECT_EQ(run.metrics_json, serial.metrics_json);
}

TEST(FleetDeterminismTest, AdaptiveLoopIdenticalAcrossExecutionModes) {
  // Closed-loop adaptive reservations under diurnal per-VM demand: the
  // controller ticks at cluster barriers only, so the resize sequence — and
  // with it the full fleet fingerprint and merged metrics — must stay
  // byte-identical across serial and parallel execution.
  FleetScenarioConfig base = SmallFleet();
  base.shape = fleet::DemandShape::kDiurnal;
  base.shape_period = 200 * kMillisecond;
  base.shape_min = 0.2;
  base.shape_max = 1.6;
  base.stagger_phases = true;
  base.adaptive = true;
  const TimeNs duration = 600 * kMillisecond;

  const FleetRun serial = RunFleet(base, duration);
  EXPECT_GT(serial.slo.requests, 0u);
  // The loop actually actuated: a detached controller would make this test
  // vacuously identical to the static determinism test above.
  EXPECT_GT(serial.resizes, 0u);

  for (const int threads : {1, 2, 4}) {
    FleetScenarioConfig parallel = base;
    parallel.parallel = true;
    parallel.num_threads = threads;
    const FleetRun run = RunFleet(parallel, duration);
    EXPECT_EQ(run.resizes, serial.resizes) << "threads=" << threads;
    EXPECT_EQ(run.fingerprint, serial.fingerprint) << "threads=" << threads;
    EXPECT_EQ(run.metrics_json, serial.metrics_json) << "threads=" << threads;
  }

  const FleetRun repeat = RunFleet(base, duration);
  EXPECT_EQ(repeat.fingerprint, serial.fingerprint);
  EXPECT_EQ(repeat.metrics_json, serial.metrics_json);

  // Every host's final table — after an arbitrary number of controller
  // resizes — still satisfies the admitted reservations' contracts.
  fleet::Cluster cluster(BuildFleetConfig(base));
  cluster.Start();
  cluster.RunUntil(duration);
  for (int h = 0; h < base.num_hosts; ++h) {
    fleet::Host& host = cluster.host(h);
    if (!host.plan().success) {
      continue;
    }
    const std::vector<std::string> violations =
        check::VerifyPlan(host.plan(), host.planner_config());
    EXPECT_TRUE(violations.empty()) << "host " << h << ": " << violations.front();
  }
}

TEST(FleetEngineTest, EveryHostRunsOnItsOwnEngine) {
  // The barrier runs the hosts' own engines: its event count is their sum,
  // and the merged sim.* gauges hold the busiest engine's values (gauges
  // merge by maximum).
  fleet::Cluster cluster(BuildFleetConfig(SmallFleet()));
  cluster.Start();
  cluster.RunUntil(100 * kMillisecond);
  std::set<const Simulation*> engines;
  std::uint64_t total = 0;
  std::uint64_t busiest = 0;
  for (int h = 0; h < cluster.num_hosts(); ++h) {
    const Simulation& engine = cluster.host(h).machine().sim();
    engines.insert(&engine);
    total += engine.events_executed();
    busiest = std::max(busiest, engine.events_executed());
  }
  EXPECT_EQ(engines.size(), 4u);
  EXPECT_GT(busiest, 0u);
  EXPECT_EQ(total, cluster.sim().events_executed());
  const obs::MetricsSnapshot merged = cluster.MergedMetrics();
  const auto events = merged.values.find("sim.events_executed");
  ASSERT_NE(events, merged.values.end());
  EXPECT_EQ(events->second.gauge, static_cast<double>(busiest));
}

TEST(FleetPlacementTest, WorstFitSpreadsFirstFitPacks) {
  FleetScenarioConfig config = SmallFleet();
  config.arrival_spread = 0;  // All VMs arrive at t=0, one admission tick.
  config.num_vms = 8;

  fleet::Cluster spread(BuildFleetConfig(config));
  spread.Start();
  std::vector<int> spread_hosts;
  for (int vm = 0; vm < config.num_vms; ++vm) {
    ASSERT_EQ(spread.vm_state(vm).status, fleet::Cluster::VmState::Status::kActive);
    spread_hosts.push_back(spread.vm_state(vm).host);
  }
  // Worst fit rotates over the emptiest hosts: 8 VMs on 4 equal hosts land
  // 2 per host.
  for (int h = 0; h < config.num_hosts; ++h) {
    EXPECT_EQ(std::count(spread_hosts.begin(), spread_hosts.end(), h), 2)
        << "host " << h;
  }

  config.placement = fleet::PlacementPolicy::kFirstFit;
  fleet::Cluster packed(BuildFleetConfig(config));
  packed.Start();
  // First fit packs host 0 until its committed-utilization cap (0.9 * 4
  // cores = 3.6 -> 14 quarter-core VMs would fit; our 8 all land there).
  for (int vm = 0; vm < config.num_vms; ++vm) {
    EXPECT_EQ(packed.vm_state(vm).host, 0) << "vm " << vm;
  }
}

TEST(FleetPlacementTest, RejectsWhenFleetIsFull) {
  FleetScenarioConfig config = SmallFleet();
  config.arrival_spread = 0;
  // Capacity: 4 hosts * floor(0.9 * 4 cores / 0.25) = 4 * 14 VMs by the
  // committed-utilization cap (the 8-slot pool binds earlier: 8 per host).
  config.num_vms = 40;

  fleet::Cluster cluster(BuildFleetConfig(config));
  cluster.Start();
  const fleet::Cluster::SloSummary slo = cluster.Slo();
  EXPECT_EQ(slo.vms_admitted, 32);  // 4 hosts x 8 slots.
  EXPECT_EQ(slo.vms_rejected, 8);
}

TEST(FleetMigrationTest, OverloadDrainsMigratesAndVerifies) {
  FleetScenarioConfig config = SmallFleet();
  config.arrival_spread = 0;
  config.num_vms = 6;
  config.requests_per_sec = 200;
  config.service_ns = 500 * kMicrosecond;
  // VM 0 surges 10x at t=100ms: demand 1000 ms/s against a quarter-core
  // reservation (250 ms/s) — a sustained overload the burn-rate detector
  // must catch.
  config.surge_vms = 1;
  config.surge_at = 100 * kMillisecond;
  config.surge_factor = 10.0;
  config.min_requests_before_migration = 20;

  fleet::Cluster cluster(BuildFleetConfig(config));
  cluster.Start();
  cluster.RunUntil(1 * kSecond);

  ASSERT_EQ(cluster.migrations().size(), 1u);
  const fleet::Cluster::MigrationRecord& migration = cluster.migrations()[0];
  EXPECT_EQ(migration.vm, 0);
  EXPECT_NE(migration.from, migration.to);
  EXPECT_GT(migration.transferred, migration.drain_started);
  EXPECT_GE(migration.drain_started, config.surge_at);

  const fleet::Cluster::VmState& state = cluster.vm_state(0);
  EXPECT_EQ(state.status, fleet::Cluster::VmState::Status::kActive);
  EXPECT_EQ(state.host, migration.to);
  EXPECT_EQ(state.migrations, 1);

  // Oracle 1: the destination host's live table still satisfies every
  // admitted reservation's contract.
  fleet::Host& destination = cluster.host(migration.to);
  ASSERT_TRUE(destination.plan().success);
  const std::vector<std::string> violations =
      check::VerifyPlan(destination.plan(), destination.planner_config());
  EXPECT_TRUE(violations.empty()) << violations.front();

  // Oracle 2: span conservation across the drain. Every intended grid slot
  // was posted exactly once (downtime becomes catch-up latency, never a
  // dropped request), and the queue was fully drained before the transfer.
  const fleet::VmStream& stream = cluster.stream(0);
  EXPECT_EQ(stream.posted(), stream.next_k());
  EXPECT_LE(stream.completed(), stream.posted());
  EXPECT_GT(stream.completed(), config.min_requests_before_migration);

  // The migrated VM saw SLO pressure; the fleet summary reflects it.
  const fleet::Cluster::SloSummary slo = cluster.Slo();
  EXPECT_GT(slo.misses, 0u);
  EXPECT_LT(slo.worst_vm_attainment, 1.0);
}

TEST(FleetMigrationTest, MergedMetricsCarryNoPerSlotSloGauges) {
  // The CI fleet smoke run: VM 0 surges 6x and is migrated. Per-VM verdicts
  // live in each host's SLO tracker and in Cluster::Slo(), which follows a VM
  // across hosts; merged metrics hold no per-slot slo.vm<k>.* gauges, whose
  // max-merge would mix unrelated VMs that share a host-local slot index.
  FleetScenarioConfig config;
  config.num_hosts = 4;
  config.cpus_per_host = 4;
  config.slots_per_core = 2;
  config.num_vms = 8;
  config.surge_vms = 1;
  config.surge_at = 100 * kMillisecond;
  config.surge_factor = 6.0;
  const FleetRun run = RunFleet(config, 500 * kMillisecond);
  EXPECT_EQ(run.metrics_json.find("\"slo.vm"), std::string::npos);
  EXPECT_LT(run.slo.worst_vm_attainment, 1.0);
}

TEST(FleetTelemetryTest, MergedTimeSeriesBytesArePinned) {
  // The merged machine-wide and per-pCPU series of four hosts, byte for
  // byte, across a surge and its migration.
  FleetScenarioConfig config = SmallFleet();
  config.arrival_spread = 0;
  config.num_vms = 6;
  config.surge_vms = 1;
  config.surge_at = 50 * kMillisecond;
  config.surge_factor = 10.0;
  config.min_requests_before_migration = 20;
  fleet::Cluster cluster(BuildFleetConfig(config));
  cluster.Start();
  cluster.RunUntil(600 * kMillisecond);
  ASSERT_GE(cluster.migrations().size(), 1u);
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : cluster.MergedTimeSeries().ToJson()) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  EXPECT_EQ(hash, 0xf0ec254898e4c2f0ull);
}

TEST(FleetMigrationTest, MigrationIsDeterministicAcrossModes) {
  FleetScenarioConfig config = SmallFleet();
  config.arrival_spread = 0;
  config.num_vms = 6;
  config.surge_vms = 1;
  config.surge_at = 50 * kMillisecond;
  config.surge_factor = 10.0;
  config.min_requests_before_migration = 20;

  const FleetRun serial = RunFleet(config, 600 * kMillisecond);
  ASSERT_GE(serial.migrations, 1);

  FleetScenarioConfig parallel = config;
  parallel.parallel = true;
  parallel.num_threads = 2;
  const FleetRun threaded = RunFleet(parallel, 600 * kMillisecond);
  EXPECT_EQ(threaded.migrations, serial.migrations);
  EXPECT_EQ(threaded.fingerprint, serial.fingerprint);
  EXPECT_EQ(threaded.metrics_json, serial.metrics_json);
}

TEST(FleetHostTest, SlotPoolAdmitsAndRemoves) {
  fleet::HostConfig config;
  config.num_cpus = 4;
  config.cores_per_socket = 2;
  config.slots_per_core = 2;
  config.attach_telemetry = false;
  fleet::Host host(config);

  EXPECT_EQ(host.num_slots(), 8);
  EXPECT_EQ(host.free_slots(), 8);
  EXPECT_FALSE(host.plan().success);

  const int a = host.AdmitVm(0.25, 20 * kMillisecond);
  const int b = host.AdmitVm(0.5, 10 * kMillisecond);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(host.free_slots(), 6);
  EXPECT_DOUBLE_EQ(host.committed(), 0.75);
  ASSERT_TRUE(host.plan().success);
  EXPECT_EQ(host.plan().requests.size(), 2u);
  EXPECT_TRUE(
      check::VerifyPlan(host.plan(), host.planner_config()).empty());

  host.RemoveVm(a);
  EXPECT_EQ(host.free_slots(), 7);
  EXPECT_DOUBLE_EQ(host.committed(), 0.5);
  // The freed slot is the lowest again.
  EXPECT_EQ(host.AdmitVm(0.25, 20 * kMillisecond), 0);

  // Removing the last VMs resets to the empty table.
  host.RemoveVm(0);
  host.RemoveVm(b);
  EXPECT_FALSE(host.plan().success);
  EXPECT_EQ(host.free_slots(), 8);
  EXPECT_DOUBLE_EQ(host.committed(), 0.0);
}

TEST(FleetHostTest, InstalledTableSharesThePlanCpuTables) {
  fleet::HostConfig config;
  config.num_cpus = 4;
  config.cores_per_socket = 2;
  config.slots_per_core = 2;
  config.attach_telemetry = false;
  fleet::Host host(config);
  TableauDispatcher& dispatcher = host.tableau()->dispatcher();
  // Promotes the table the host pushed last and checks that it holds the
  // plan's per-pCPU tables, not copies of them.
  const auto expect_shared = [&](const char* step) {
    const TimeNs switch_at = dispatcher.pending_switch_time();
    ASSERT_NE(switch_at, kTimeNever) << step;
    const SchedulingTable& installed = dispatcher.ActiveTable(switch_at);
    const SchedulingTable& planned = host.plan().table;
    ASSERT_EQ(installed.num_cpus(), planned.num_cpus()) << step;
    for (int c = 0; c < planned.num_cpus(); ++c) {
      EXPECT_EQ(&installed.cpu(c), &planned.cpu(c)) << step << ", cpu " << c;
    }
  };

  const int a = host.AdmitVm(0.25, 20 * kMillisecond);
  expect_shared("full solve");
  ASSERT_GE(host.AdmitVm(0.5, 10 * kMillisecond), 0);
  expect_shared("arrival");
  ASSERT_EQ(host.ResizeVms({{a, 0.375}}, 0), 1);
  expect_shared("resize");
  host.RemoveVm(a);
  expect_shared("departure");
}

}  // namespace
}  // namespace tableau
