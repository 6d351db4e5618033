// Tests for the experiment harness, including multi-vCPU VM scenarios.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/core/coschedule.h"
#include "src/harness/scenario.h"
#include "src/workloads/gang.h"
#include "src/workloads/stress.h"
#include "tests/table_oracles.h"

namespace tableau {
namespace {

TEST(Harness, PaperDefaultsBuild48Vms) {
  ScenarioConfig config;
  config.scheduler = SchedKind::kTableau;
  config.capped = true;
  const Scenario scenario = BuildScenario(config);
  EXPECT_EQ(scenario.vcpus.size(), 48u);
  EXPECT_EQ(scenario.machine->num_cpus(), 12);
  EXPECT_TRUE(scenario.plan.success);
  // Single-vCPU VMs: one VM index per vCPU.
  std::set<int> vms(scenario.vm_of.begin(), scenario.vm_of.end());
  EXPECT_EQ(vms.size(), 48u);
}

TEST(Harness, SchedulerNamesCoverAllKinds) {
  EXPECT_STREQ(SchedKindName(SchedKind::kCredit), "Credit");
  EXPECT_STREQ(SchedKindName(SchedKind::kCredit2), "Credit2");
  EXPECT_STREQ(SchedKindName(SchedKind::kRtds), "RTDS");
  EXPECT_STREQ(SchedKindName(SchedKind::kTableau), "Tableau");
  EXPECT_STREQ(SchedKindName(SchedKind::kCfs), "CFS");
}

TEST(Harness, VmScenarioGroupsVcpus) {
  ScenarioConfig config;
  config.scheduler = SchedKind::kTableau;
  config.guest_cpus = 4;
  config.cores_per_socket = 2;
  config.capped = true;
  std::vector<VmSpec> vms;
  vms.push_back(VmSpec{.vcpus = 2, .utilization_each = 0.25, .gang = false});
  vms.push_back(VmSpec{.vcpus = 1, .utilization_each = 0.5});
  vms.push_back(VmSpec{.vcpus = 3, .utilization_each = 0.2});
  const Scenario scenario = BuildVmScenario(config, vms);
  ASSERT_EQ(scenario.vcpus.size(), 6u);
  EXPECT_EQ(scenario.vm_of, (std::vector<int>{0, 0, 1, 2, 2, 2}));
  EXPECT_TRUE(scenario.plan.success);
  // Every vCPU got its reservation in the table.
  for (std::size_t i = 0; i < scenario.vcpus.size(); ++i) {
    const double granted =
        static_cast<double>(TotalService(scenario.plan.table, scenario.vcpus[i]->id())) /
        static_cast<double>(scenario.plan.table.length());
    const double requested = i < 2 ? 0.25 : (i == 2 ? 0.5 : 0.2);
    EXPECT_GE(granted, requested - 1e-3) << i;
  }
}

TEST(Harness, GangVmGetsAlignedSlots) {
  ScenarioConfig config;
  config.scheduler = SchedKind::kTableau;
  config.guest_cpus = 2;
  config.cores_per_socket = 2;
  config.capped = true;

  // Same shape with and without the gang hint; the gang variant must have
  // at least as much member-slot overlap.
  TimeNs overlap[2];
  for (const bool gang : {false, true}) {
    std::vector<VmSpec> vms;
    vms.push_back(VmSpec{.vcpus = 2, .utilization_each = 0.25, .gang = gang});
    // Filler VMs so the cores are not trivially aligned.
    vms.push_back(VmSpec{.vcpus = 1, .utilization_each = 0.4});
    vms.push_back(VmSpec{.vcpus = 1, .utilization_each = 0.4});
    const Scenario scenario = BuildVmScenario(config, vms);
    ASSERT_TRUE(scenario.plan.success);
    std::vector<std::vector<Allocation>> per_core(2);
    for (int c = 0; c < 2; ++c) {
      per_core[static_cast<std::size_t>(c)] = scenario.plan.table.cpu(c).allocations;
    }
    overlap[gang ? 1 : 0] = PairOverlapNs(per_core, 0, 1);
  }
  EXPECT_GE(overlap[1], overlap[0]);
  EXPECT_GT(overlap[1], 0);
}

TEST(Harness, GangVmImprovesPhaseThroughput) {
  // End to end: a barrier-parallel VM completes more phases when planned
  // with the gang hint.
  std::uint64_t phases[2];
  for (const bool gang : {false, true}) {
    ScenarioConfig config;
    config.scheduler = SchedKind::kTableau;
    config.guest_cpus = 2;
    config.cores_per_socket = 2;
    config.capped = true;
    std::vector<VmSpec> vms;
    vms.push_back(VmSpec{.vcpus = 2, .utilization_each = 0.25, .gang = gang});
    Scenario scenario = BuildVmScenario(config, vms);
    // Force misalignment in the non-gang case by shifting core 1's slots to
    // the end of their windows (the planner may align by accident).
    if (!gang) {
      std::vector<std::vector<Allocation>> per_core(2);
      per_core[0] = scenario.plan.table.cpu(0).allocations;
      per_core[1] = scenario.plan.table.cpu(1).allocations;
      const PeriodicTask& task = scenario.plan.core_tasks[1][0];
      for (Allocation& alloc : per_core[1]) {
        const TimeNs window = (alloc.start / task.period) * task.period;
        alloc.start = window + task.period - alloc.Length();
        alloc.end = window + task.period;
      }
      scenario.tableau->PushTable(std::make_shared<SchedulingTable>(
          SchedulingTable::Build(scenario.plan.table.length(), std::move(per_core))));
    }
    GangWorkload::Config gang_config;
    gang_config.phase_cpu = 500 * kMicrosecond;
    GangWorkload workload(scenario.machine,
                          {scenario.vcpus[0], scenario.vcpus[1]}, gang_config);
    workload.Start(0);
    scenario.machine->Start();
    // Skip past the table switch (the misaligned push lands 2 rounds out).
    scenario.machine->RunFor(4 * kSecond);
    phases[gang ? 1 : 0] = workload.phases_completed();
  }
  EXPECT_GT(phases[1], phases[0] * 3 / 2);
}

TEST(Harness, EmptyVmListIsValid) {
  ScenarioConfig config;
  config.scheduler = SchedKind::kCredit;
  config.guest_cpus = 2;
  config.cores_per_socket = 2;
  const Scenario scenario = BuildVmScenario(config, {});
  EXPECT_TRUE(scenario.vcpus.empty());
  EXPECT_EQ(scenario.vantage, nullptr);
  scenario.machine->Start();
  scenario.machine->RunFor(100 * kMillisecond);  // Idles without incident.
}

}  // namespace
}  // namespace tableau
