// Fleet control-plane properties: execution-mode determinism (serial vs
// parallel with any worker count), one engine per host, placement policy
// behavior, the live-migration oracle (destination tables pass the
// TableVerifier; no request span is lost across a drain), and the window
// views an adaptive host feeds its controller.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/check/table_verifier.h"
#include "src/common/rng.h"
#include "src/harness/fleet_scenario.h"
#include "src/obs/attribution.h"

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

TEST(FleetTelemetryTest, SpanComponentsSumToLatencyAcrossMigration) {
  // Hosts that decompose spans: two vantage slots each, and a span observer
  // on every host, so every VM keeps its attributor totals in flight. The
  // surging VM drains on its source host and finishes on the destination;
  // every span on either side must still split into components that sum
  // exactly to its latency, and a VM's spans must follow its request grid.
  FleetScenarioConfig scenario = SmallFleet();
  scenario.arrival_spread = 0;
  scenario.num_vms = 6;
  scenario.requests_per_sec = 200;
  scenario.service_ns = 500 * kMicrosecond;
  scenario.surge_vms = 1;
  scenario.surge_at = 100 * kMillisecond;
  scenario.surge_factor = 10.0;
  scenario.min_requests_before_migration = 20;
  fleet::ClusterConfig config = BuildFleetConfig(scenario);
  config.host.telemetry.vantage_vcpus = 2;
  fleet::Cluster cluster(config);

  struct Span {
    TimeNs start;
    TimeNs end;
  };
  std::map<std::pair<int, int>, std::vector<Span>> spans;  // By (host, slot).
  std::uint64_t inexact = 0;
  for (int h = 0; h < cluster.num_hosts(); ++h) {
    cluster.host(h).telemetry()->set_span_observer(
        [&spans, &inexact, h](int vcpu, TimeNs start, TimeNs end,
                              const obs::LatencyBreakdown& breakdown) {
          inexact += breakdown.Total() == end - start ? 0 : 1;
          spans[{h, vcpu}].push_back(Span{start, end});
        });
  }
  cluster.Start();
  const fleet::Cluster::VmState source = cluster.vm_state(0);
  cluster.RunUntil(1 * kSecond);

  ASSERT_EQ(cluster.migrations().size(), 1u);
  const fleet::Cluster::VmState& destination = cluster.vm_state(0);
  ASSERT_EQ(cluster.migrations()[0].from, source.host);
  ASSERT_EQ(cluster.migrations()[0].to, destination.host);
  EXPECT_EQ(inexact, 0u);
  std::uint64_t observed = 0;
  for (const auto& [where, list] : spans) {
    observed += list.size();
  }
  EXPECT_EQ(observed, cluster.Slo().requests);

  // VM 0's spans, source then destination, start on consecutive grid points
  // (one request per period, none lost or repeated by the drain), and the
  // longest is the stream's own maximum latency.
  const TimeNs period = static_cast<TimeNs>(kSecond / scenario.requests_per_sec);
  std::vector<Span> vm0 = spans[{source.host, source.slot}];
  const std::vector<Span>& after = spans[{destination.host, destination.slot}];
  ASSERT_FALSE(vm0.empty());
  ASSERT_FALSE(after.empty());
  vm0.insert(vm0.end(), after.begin(), after.end());
  ASSERT_EQ(vm0.size(), cluster.stream(0).completed());
  TimeNs longest = 0;
  for (std::size_t k = 0; k < vm0.size(); ++k) {
    EXPECT_EQ(vm0[k].start, vm0[0].start + static_cast<TimeNs>(k) * period) << k;
    longest = std::max(longest, vm0[k].end - vm0[k].start);
  }
  EXPECT_EQ(longest, cluster.stream(0).max_latency());

  // Vantage slots also fill their span histograms and latency series, one
  // sample per span.
  for (int h = 0; h < cluster.num_hosts(); ++h) {
    const obs::Telemetry& telemetry = *cluster.host(h).telemetry();
    const obs::TimeSeriesSnapshot series = telemetry.TimeSeries();
    for (int slot = 0; slot < 2; ++slot) {
      const std::size_t observed_here = spans[{h, slot}].size();
      EXPECT_EQ(telemetry.RequestLatencyHistogram(slot).count, observed_here)
          << "host " << h << " slot " << slot;
      const std::string name =
          "h" + std::to_string(h) + ".s" + std::to_string(slot) + ".latency_ns";
      std::uint64_t samples = 0;
      for (const obs::TimeSeriesWindow& window : series.series.at(name).windows) {
        samples += window.count;
      }
      EXPECT_EQ(samples, observed_here) << name;
    }
  }
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

// --- Window views: the adaptive controller's input and hold signal ---

// An adaptive host with one pCPU and `slots` slots, started so that its
// telemetry is bound; tests drive the telemetry hooks by hand.
fleet::HostConfig ViewHostConfig(int slots, TimeNs window) {
  fleet::HostConfig config;
  config.num_cpus = 1;
  config.cores_per_socket = 1;
  config.slots_per_core = slots;
  config.telemetry.window_ns = window;
  config.adaptive = true;
  return config;
}

TEST(FleetHostTest, WindowViewDistinguishesNoDataFromZero) {
  // Host::AdaptTick reads this view: a vCPU that was blocked through a whole
  // window must read as "no data", never as a window claiming zero demand,
  // or the controller would shrink a briefly-idle VM to its floor on the
  // strength of silence.
  fleet::Host host(ViewHostConfig(/*slots=*/2, /*window=*/100));
  host.machine().Start();
  obs::Telemetry& telemetry = *host.telemetry();

  // vCPU 0 stays blocked; vCPU 1 waits [10, 20), runs [20, 70), then blocks.
  telemetry.OnWakeup(1, 10);
  telemetry.OnDispatch(1, 20);
  telemetry.OnServiceRange(1, /*cpu=*/0, 20, 70);
  telemetry.OnBlock(1, 70);

  const fleet::Host::WindowView idle = host.CloseWindow(0, 100);
  EXPECT_FALSE(idle.has_data);
  EXPECT_EQ(idle.demand_ns, 0);
  EXPECT_EQ(idle.supply_ns, 0);
  const fleet::Host::WindowView ran = host.CloseWindow(1, 100);
  EXPECT_TRUE(ran.has_data);
  EXPECT_EQ(ran.supply_ns, 50);
  EXPECT_EQ(ran.demand_ns, 60);  // 10 ns in the wake queue + 50 ns of service.

  // The next window, blocked throughout, is "no data" again: the previous
  // window's activity does not carry over.
  const fleet::Host::WindowView next = host.CloseWindow(1, 200);
  EXPECT_FALSE(next.has_data);
  EXPECT_EQ(next.supply_ns, 0);
}

TEST(FleetHostTest, AdaptTickClosesEverySlotsWindow) {
  // AdaptTick closes every slot's window at every tick, also before the
  // first plan and for unoccupied slots, so the next view of a slot covers
  // one window only, whenever a VM comes to occupy it.
  fleet::Host host(ViewHostConfig(/*slots=*/2, /*window=*/100));
  host.machine().Start();
  obs::Telemetry& telemetry = *host.telemetry();
  telemetry.OnWakeup(1, 10);
  telemetry.OnDispatch(1, 20);
  telemetry.OnBlock(1, 70);
  EXPECT_EQ(host.AdaptTick(100), 0);  // No plan yet: nothing to resize.
  EXPECT_FALSE(host.CloseWindow(1, 200).has_data);
}

TEST(FleetHostTest, WindowViewsMatchFullRecomputationUnderRandomChurn) {
  // The host takes each view from the telemetry attributor's totals at the
  // two window ends. The reference recomputes every vCPU's view from its own
  // attributor, driven through the same transitions; the two must agree on
  // every view, including a vCPU that wakes exactly on a window boundary
  // (events at a boundary precede its tick, as at a fleet barrier), a vCPU
  // that never wakes, one that only ever wakes, runs and blocks inside a
  // single window, and waits cut short by late table switches.
  constexpr TimeNs kWindow = 1000;
  constexpr int kChurning = 6;  // vCPUs 0..5 take the random transitions.
  constexpr int kNeverWakes = kChurning;
  constexpr int kBouncer = kChurning + 1;
  constexpr int kVcpus = kChurning + 2;
  fleet::Host host(ViewHostConfig(kVcpus, kWindow));
  host.machine().Start();
  obs::Telemetry& telemetry = *host.telemetry();
  obs::LatencyAttributor reference;
  reference.Bind(kVcpus, /*table_driven=*/true, /*start=*/0);
  std::vector<obs::LatencyBreakdown> prev(kVcpus);

  TimeNs boundary = kWindow;
  const auto sample_through = [&](TimeNs now) {
    for (; boundary < now; boundary += kWindow) {
      for (int v = 0; v < kVcpus; ++v) {
        const obs::LatencyBreakdown totals = reference.TotalsAt(v, boundary);
        const obs::LatencyBreakdown delta = totals - prev[v];
        prev[v] = totals;
        const TimeNs supply = delta[obs::LatencyComponent::kService];
        const TimeNs demand = supply + delta[obs::LatencyComponent::kWakeQueue] +
                              delta[obs::LatencyComponent::kPreempt] +
                              delta[obs::LatencyComponent::kBlackout] +
                              delta[obs::LatencyComponent::kSwitchSlip];
        const fleet::Host::WindowView view = host.CloseWindow(v, boundary);
        ASSERT_EQ(view.has_data, demand > 0) << "vcpu " << v << " at " << boundary;
        ASSERT_EQ(view.demand_ns, demand) << "vcpu " << v << " at " << boundary;
        ASSERT_EQ(view.supply_ns, supply) << "vcpu " << v << " at " << boundary;
      }
    }
  };

  Rng rng(23);
  TimeNs now = 0;
  int boundary_wakeups = 0;
  int bounces = 0;
  for (int step = 0; step < 40000; ++step) {
    // vCPU v is picked with weight 2^-v: high ids stay blocked for many
    // windows at a time.
    int v = 0;
    while (v + 1 < kChurning && rng.UniformInt(0, 1) == 1) {
      ++v;
    }
    const bool to_boundary = rng.UniformInt(0, 15) == 0;
    const TimeNs next = to_boundary ? boundary : now + rng.UniformInt(0, 400);
    sample_through(next);
    now = std::max(now, next);
    if (rng.UniformInt(0, 63) == 0 && now % kWindow + 20 < kWindow) {
      // The bouncer wakes, waits, runs and blocks again before the window
      // ends (sometimes all at one instant): its view has data for this
      // window only. Now and then it is dispatched straight from blocked,
      // with no wakeup, which the attributor books as blocked time.
      const TimeNs wait = rng.UniformInt(0, 1) * 10;
      const TimeNs run = rng.UniformInt(0, 1) * 10;
      if (rng.UniformInt(0, 3) != 0) {
        telemetry.OnWakeup(kBouncer, now);
        reference.OnWakeup(kBouncer, now);
      }
      telemetry.OnDispatch(kBouncer, now + wait);
      reference.OnDispatch(kBouncer, now + wait);
      telemetry.OnBlock(kBouncer, now + wait + run);
      reference.OnBlock(kBouncer, now + wait + run);
      now += wait + run;
      ++bounces;
      continue;
    }
    switch (reference.StateOf(v)) {
      case obs::LatencyComponent::kBlocked:
        boundary_wakeups += now % kWindow == 0 ? 1 : 0;
        telemetry.OnWakeup(v, now);
        reference.OnWakeup(v, now);
        break;
      case obs::LatencyComponent::kService:
        if (rng.UniformInt(0, 2) == 0) {
          telemetry.OnDeschedule(v, now);
          reference.OnDeschedule(v, now);
        } else {
          telemetry.OnBlock(v, now);
          reference.OnBlock(v, now);
        }
        break;
      default:
        if (rng.UniformInt(0, 7) == 0) {
          const TimeNs slip = rng.UniformInt(1, 300);
          telemetry.OnTableSwitch(now, slip);
          for (int u = 0; u < kVcpus; ++u) {
            reference.ReattributeSlip(u, now, slip);
          }
        } else {
          telemetry.OnDispatch(v, now);
          reference.OnDispatch(v, now);
        }
        break;
    }
  }
  sample_through(now + 2 * kWindow);
  EXPECT_GT(boundary_wakeups, 0);
  EXPECT_GT(bounces, 0);
  EXPECT_EQ(reference.StateOf(kNeverWakes), obs::LatencyComponent::kBlocked);
}

}  // namespace
}  // namespace tableau
