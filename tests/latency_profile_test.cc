// Tests for the analytical wake-up latency profile, including the
// model-vs-simulation cross-validation: the closed-form prediction from
// table structure must match the ping latencies the DES measures.
#include <gtest/gtest.h>

#include <memory>

#include "src/core/planner.h"
#include "src/harness/scenario.h"
#include "src/workloads/ping.h"
#include "tests/table_oracles.h"

namespace tableau {
namespace {

TEST(LatencyProfile, SingleSlotClosedForm) {
  // One 25% slot per 1000 ns round: gap 750, E[wait] = 750^2/2/1000 = 281.25.
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 250}};
  const SchedulingTable table = SchedulingTable::Build(1000, std::move(per_cpu));
  const LatencyProfile profile = AnalyzeWakeupLatency(table, 0);
  EXPECT_DOUBLE_EQ(profile.service_fraction, 0.25);
  EXPECT_EQ(profile.mean, 281);
  EXPECT_EQ(profile.max, 750);
  // P(wait > w) = (750 - w)/1000 = 0.01 at w = 740.
  EXPECT_EQ(profile.p99, 740);
}

TEST(LatencyProfile, TwoGapsWeightedCorrectly) {
  // Slots [0,100) and [500,600): gaps 400 and 500 (wrap 400 + ... compute):
  // gaps: [100,500)=400 and [600,1000)+[0,0)=400. E = 2*(400^2/2)/1000 = 160.
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 100}, {0, 500, 600}};
  const SchedulingTable table = SchedulingTable::Build(1000, std::move(per_cpu));
  const LatencyProfile profile = AnalyzeWakeupLatency(table, 0);
  EXPECT_EQ(profile.mean, 160);
  EXPECT_EQ(profile.max, 400);
}

TEST(LatencyProfile, FullCoreHasZeroWait) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 1000}};
  const SchedulingTable table = SchedulingTable::Build(1000, std::move(per_cpu));
  const LatencyProfile profile = AnalyzeWakeupLatency(table, 0);
  EXPECT_DOUBLE_EQ(profile.service_fraction, 1.0);
  EXPECT_EQ(profile.mean, 0);
  EXPECT_EQ(profile.max, 0);
}

TEST(LatencyProfile, UnknownVcpuWaitsForever) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 1000}};
  const SchedulingTable table = SchedulingTable::Build(1000, std::move(per_cpu));
  const LatencyProfile profile = AnalyzeWakeupLatency(table, 99);
  EXPECT_EQ(profile.mean, 1000);
}

TEST(LatencyProfile, MaxMatchesMaxBlackout) {
  PlannerConfig config;
  config.num_cpus = 4;
  const Planner planner(config);
  std::vector<VcpuRequest> requests;
  for (int i = 0; i < 12; ++i) {
    requests.push_back({i, 0.3, 40 * kMillisecond});
  }
  const PlanResult plan = planner.Solve(PlanRequest::Full(requests));
  ASSERT_TRUE(plan.success);
  for (const VcpuPlan& vcpu : plan.vcpus) {
    const LatencyProfile profile = AnalyzeWakeupLatency(plan.table, vcpu.vcpu);
    EXPECT_EQ(profile.max, MaxBlackout(plan.table, vcpu.vcpu)) << vcpu.vcpu;
    EXPECT_LE(profile.mean, profile.p99);
    EXPECT_LE(profile.p99, profile.max);
  }
}

TEST(LatencyProfile, PredictsSimulatedPingLatency) {
  // The paper-config capped Tableau host: the analytical profile of the
  // vantage vCPU's table must predict the DES-measured ping RTT
  // (up to the constant network + handling offsets).
  ScenarioConfig config;
  config.scheduler = SchedKind::kTableau;
  config.guest_cpus = 4;
  config.cores_per_socket = 2;
  config.capped = true;
  Scenario scenario = BuildScenario(config);
  const LatencyProfile profile = AnalyzeWakeupLatency(scenario.plan.table, 0);

  WorkQueueGuest guest(scenario.machine, scenario.vantage);
  PingTraffic::Config ping_config;
  ping_config.threads = 8;
  ping_config.pings_per_thread = 800;
  ping_config.max_spacing = 10 * kMillisecond;
  PingTraffic ping(scenario.machine, &guest, ping_config);
  ping.Start(0);
  scenario.machine->Start();
  scenario.machine->RunFor(6 * kSecond);
  ASSERT_EQ(ping.latencies().Count(), 6400u);

  // RTT = wait + 2 x 50 us network + ~20 us handling + dispatch overhead.
  const double overhead_us = 125.0;
  EXPECT_NEAR(ToUs(static_cast<TimeNs>(ping.latencies().Mean())),
              ToUs(profile.mean) + overhead_us, 350.0);
  EXPECT_NEAR(ToUs(ping.latencies().Max()), ToUs(profile.max) + overhead_us, 600.0);
}

}  // namespace
}  // namespace tableau
