// Runtime tests for the Tableau scheduler adapter: split-vCPU hand-off
// (Sec. 6 "Cross-core migrations"), live table switches, wake-up IPI
// targeting, and the trailing-core second level — all executed on the
// simulated machine (the machine aborts if any scheduler ever runs one vCPU
// on two cores at once, so these tests double as race checks).
#include <gtest/gtest.h>

#include <memory>

#include "src/core/planner.h"
#include "src/rt/dpfair.h"
#include "src/hypervisor/machine.h"
#include "src/schedulers/tableau_scheduler.h"
#include "src/workloads/guest.h"
#include "src/workloads/ping.h"
#include "src/workloads/stress.h"

namespace tableau {
namespace {

std::shared_ptr<SchedulingTable> MakeTable(TimeNs length,
                                           std::vector<std::vector<Allocation>> per_cpu) {
  return std::make_shared<SchedulingTable>(
      SchedulingTable::Build(length, std::move(per_cpu)));
}

struct Rig {
  Rig(int cpus, TableauDispatcher::Config config) {
    auto owned = std::make_unique<TableauScheduler>(config);
    scheduler = owned.get();
    MachineConfig machine_config;
    machine_config.num_cpus = cpus;
    machine_config.cores_per_socket = cpus;
    machine = std::make_unique<Machine>(machine_config, std::move(owned));
  }
  std::unique_ptr<Machine> machine;
  TableauScheduler* scheduler;
};

double Share(const Vcpu* vcpu, TimeNs duration) {
  return static_cast<double>(vcpu->total_service()) / static_cast<double>(duration);
}

TEST(TableauRuntime, BackToBackSplitAllocationsHandOffSafely) {
  // vCPU 0's allocation on cpu1 begins exactly when its allocation on cpu0
  // ends, every 10 ms — the hand-off race of Sec. 6. The machine CHECKs
  // against concurrent execution; the vCPU must still receive its full 40%.
  TableauDispatcher::Config config;
  config.work_conserving = false;
  Rig rig(2, config);
  Vcpu* split = rig.machine->AddVcpu(VcpuParams{});
  Vcpu* other = rig.machine->AddVcpu(VcpuParams{});
  const TimeNs period = 10 * kMillisecond;
  std::vector<std::vector<Allocation>> per_cpu(2);
  for (TimeNs t = 0; t < 100 * kMillisecond; t += period) {
    per_cpu[0].push_back({0, t, t + period / 5});
    per_cpu[1].push_back({0, t + period / 5, t + 2 * period / 5});
    per_cpu[1].push_back({1, t + 2 * period / 5, t + 3 * period / 5});
  }
  rig.scheduler->PushTable(MakeTable(100 * kMillisecond, std::move(per_cpu)));

  CpuHogWorkload hog_a(rig.machine.get(), split);
  CpuHogWorkload hog_b(rig.machine.get(), other);
  hog_a.Start(0);
  hog_b.Start(0);
  rig.machine->Start();
  rig.machine->RunFor(2 * kSecond);
  EXPECT_NEAR(Share(split, 2 * kSecond), 0.4, 0.02);
  EXPECT_NEAR(Share(other, 2 * kSecond), 0.2, 0.02);
}

TEST(TableauRuntime, SplitVcpuNeverRunsConcurrently) {
  // Planner-produced semi-partitioned table under live load: the machine's
  // internal CHECK would abort on any dual dispatch.
  TableauDispatcher::Config config;
  config.work_conserving = false;
  Rig rig(2, config);
  std::vector<VcpuRequest> requests = {{0, 0.6, 40 * kMillisecond},
                                       {1, 0.6, 40 * kMillisecond},
                                       {2, 0.6, 40 * kMillisecond}};
  PlannerConfig planner_config;
  planner_config.num_cpus = 2;
  PlanResult plan = Planner(planner_config).Solve(PlanRequest::Full(requests));
  ASSERT_TRUE(plan.success);

  std::vector<std::unique_ptr<Vcpu>> dummy;
  std::vector<Vcpu*> vcpus;
  std::vector<std::unique_ptr<StressIoWorkload>> stress;
  for (int i = 0; i < 3; ++i) {
    VcpuParams params;
    params.cap = 0.6;
    vcpus.push_back(rig.machine->AddVcpu(params));
    StressIoWorkload::Config stress_config = StressIoWorkload::Config::Heavy();
    stress_config.seed = static_cast<std::uint64_t>(i) + 1;
    stress.push_back(std::make_unique<StressIoWorkload>(rig.machine.get(), vcpus.back(),
                                                        stress_config));
    stress.back()->Start(0);
  }
  rig.scheduler->PushTable(std::make_shared<SchedulingTable>(plan.table));
  rig.machine->Start();
  rig.machine->RunFor(3 * kSecond);
  for (const Vcpu* vcpu : vcpus) {
    EXPECT_GT(vcpu->total_service(), 500 * kMillisecond) << vcpu->id();
  }
}

TEST(TableauRuntime, DpFairClusterTableRunsWithExactShares) {
  // A DP-Fair cluster schedule migrates vCPUs at every frame boundary, with
  // back-to-back cross-core allocations — the harshest workout for the
  // ownership hand-off. Three 2/3-utilization vCPUs on two cores cannot be
  // partitioned at all, so this table only exists thanks to the cluster
  // stage; shares must come out exact and the machine's no-dual-dispatch
  // CHECKs must hold throughout.
  const TimeNs h = 12 * kMillisecond;
  std::vector<PeriodicTask> tasks = {
      PeriodicTask::Implicit(0, 2 * kMillisecond, 3 * kMillisecond),
      PeriodicTask::Implicit(1, 2 * kMillisecond, 3 * kMillisecond),
      PeriodicTask::Implicit(2, 2 * kMillisecond, 3 * kMillisecond)};
  const ClusterScheduleResult cluster = DpFairSchedule(tasks, 2, h);
  ASSERT_TRUE(cluster.success);
  std::vector<std::vector<Allocation>> per_core = cluster.core_allocations;
  SchedulingTable table = SchedulingTable::Build(h, std::move(per_core));
  ASSERT_EQ(table.Validate(), "");

  TableauDispatcher::Config config;
  config.work_conserving = false;
  Rig rig(2, config);
  std::vector<Vcpu*> vcpus;
  std::vector<std::unique_ptr<CpuHogWorkload>> hogs;
  for (int i = 0; i < 3; ++i) {
    vcpus.push_back(rig.machine->AddVcpu(VcpuParams{}));
    hogs.push_back(std::make_unique<CpuHogWorkload>(rig.machine.get(), vcpus.back()));
    hogs.back()->Start(0);
  }
  rig.scheduler->PushTable(std::make_shared<SchedulingTable>(std::move(table)));
  rig.machine->Start();
  rig.machine->RunFor(3 * kSecond);
  for (const Vcpu* vcpu : vcpus) {
    // 2/3 share each, minus hand-off/context-switch overhead.
    EXPECT_NEAR(Share(vcpu, 3 * kSecond), 2.0 / 3, 0.03) << vcpu->id();
  }
  // Frequent migrations actually happened.
  EXPECT_GT(rig.machine->context_switches(), 3000u);
}

TEST(TableauRuntime, LiveTableSwitchShiftsShares) {
  TableauDispatcher::Config config;
  config.work_conserving = false;
  Rig rig(1, config);
  Vcpu* a = rig.machine->AddVcpu(VcpuParams{});
  Vcpu* b = rig.machine->AddVcpu(VcpuParams{});
  const TimeNs len = 10 * kMillisecond;
  rig.scheduler->PushTable(
      MakeTable(len, {{{0, 0, 8 * kMillisecond}, {1, 8 * kMillisecond, len}}}));
  CpuHogWorkload hog_a(rig.machine.get(), a);
  CpuHogWorkload hog_b(rig.machine.get(), b);
  hog_a.Start(0);
  hog_b.Start(0);
  rig.machine->Start();
  rig.machine->RunFor(kSecond);
  EXPECT_NEAR(Share(a, kSecond), 0.8, 0.02);

  // Invert the shares at runtime; switch lands at the second wrap.
  rig.scheduler->PushTable(
      MakeTable(len, {{{0, 0, 2 * kMillisecond}, {1, 2 * kMillisecond, len}}}));
  const TimeNs a_before = a->total_service();
  const TimeNs b_before = b->total_service();
  rig.machine->RunFor(kSecond);
  const double a_share =
      static_cast<double>(a->total_service() - a_before) / static_cast<double>(kSecond);
  const double b_share =
      static_cast<double>(b->total_service() - b_before) / static_cast<double>(kSecond);
  // One window (<= 2 table rounds = 20 ms) still ran on the old table.
  EXPECT_NEAR(a_share, 0.2, 0.03);
  EXPECT_NEAR(b_share, 0.8, 0.03);
}

TEST(TableauRuntime, TrailingCoreSecondLevelGivesSplitVcpuIdleCycles) {
  // A split vCPU with split participation enabled can use idle cycles on
  // its trailing core; with it disabled (prototype behaviour) it cannot.
  for (const bool participate : {false, true}) {
    TableauDispatcher::Config config;
    config.work_conserving = true;
    config.split_participation = participate;
    Rig rig(2, config);
    Vcpu* split = rig.machine->AddVcpu(VcpuParams{});
    const TimeNs len = 20 * kMillisecond;
    // 25% on cpu0 + 25% on cpu1; the rest of both cores idle.
    std::vector<std::vector<Allocation>> per_cpu(2);
    per_cpu[0].push_back({0, 0, 5 * kMillisecond});
    per_cpu[1].push_back({0, 5 * kMillisecond, 10 * kMillisecond});
    rig.scheduler->PushTable(MakeTable(len, std::move(per_cpu)));
    CpuHogWorkload hog(rig.machine.get(), split);
    hog.Start(0);
    rig.machine->Start();
    rig.machine->RunFor(2 * kSecond);
    if (participate) {
      // Table slots (50%) plus second-level time on the trailing core.
      EXPECT_GT(Share(split, 2 * kSecond), 0.8);
    } else {
      EXPECT_NEAR(Share(split, 2 * kSecond), 0.5, 0.02);
    }
  }
}

TEST(TableauRuntime, WakeupDuringOwnSlotIsDispatchedPromptly) {
  TableauDispatcher::Config config;
  config.work_conserving = false;
  Rig rig(1, config);
  Vcpu* vcpu = rig.machine->AddVcpu(VcpuParams{});
  vcpu->EnableInstrumentation();
  const TimeNs len = 10 * kMillisecond;
  // Full-core slot: any wake-up should be dispatched within IPI + switch.
  rig.scheduler->PushTable(MakeTable(len, {{{0, 0, len}}}));
  WorkQueueGuest guest(rig.machine.get(), vcpu);
  for (int i = 0; i < 50; ++i) {
    rig.machine->sim().ScheduleAt(i * 7 * kMillisecond + kMillisecond, [&] {
      guest.Post(100 * kMicrosecond, nullptr);
    });
  }
  rig.machine->Start();
  rig.machine->RunFor(kSecond);
  EXPECT_EQ(vcpu->wakeup_latency().Count(), 50u);
  EXPECT_LT(vcpu->wakeup_latency().Max(), 50 * kMicrosecond);
}

TEST(TableauRuntime, CappedWakeupWaitsForSlot) {
  TableauDispatcher::Config config;
  config.work_conserving = false;
  Rig rig(1, config);
  Vcpu* vcpu = rig.machine->AddVcpu(VcpuParams{});
  vcpu->EnableInstrumentation();
  const TimeNs len = 10 * kMillisecond;
  // Slot covers only [0, 2ms) of each 10 ms round.
  rig.scheduler->PushTable(MakeTable(len, {{{0, 0, 2 * kMillisecond}}}));
  WorkQueueGuest guest(rig.machine.get(), vcpu);
  // Wake at 5 ms into each round: must wait ~5 ms for the next slot.
  for (int i = 0; i < 20; ++i) {
    rig.machine->sim().ScheduleAt(i * len + 5 * kMillisecond, [&] {
      guest.Post(100 * kMicrosecond, nullptr);
    });
  }
  rig.machine->Start();
  rig.machine->RunFor(kSecond);
  EXPECT_EQ(vcpu->wakeup_latency().Count(), 20u);
  EXPECT_NEAR(ToMs(vcpu->wakeup_latency().Min()), 5.0, 0.2);
  EXPECT_NEAR(ToMs(vcpu->wakeup_latency().Max()), 5.0, 0.2);
}

// ---------- LockModel ----------

TEST(LockModel, UncontendedCostsHoldTime) {
  LockModel lock;
  EXPECT_EQ(lock.Acquire(1000, 500), 500);
  // Next acquisition after the hold: uncontended again.
  EXPECT_EQ(lock.Acquire(2000, 500), 500);
}

TEST(LockModel, QueueingDelayAccumulates) {
  LockModel lock;
  EXPECT_EQ(lock.Acquire(0, 1000), 1000);
  // Arrives halfway through the previous hold: waits 500.
  EXPECT_EQ(lock.Acquire(500, 1000), 1500);
  // Arrives while two holders are queued ahead.
  EXPECT_EQ(lock.Acquire(600, 1000), 2400);  // free_at was 2000.
}

TEST(LockModel, PatienceBoundsSpin) {
  LockModel lock;
  lock.Acquire(0, 10'000);
  const auto gave_up = lock.AcquireWithPatience(100, 1000, 500);
  EXPECT_FALSE(gave_up.acquired);
  EXPECT_EQ(gave_up.cost, 500);  // Spun for the whole patience, then quit.
  // Giving up must not extend the lock's busy horizon.
  const auto next = lock.AcquireWithPatience(10'000, 1000, 500);
  EXPECT_TRUE(next.acquired);
  EXPECT_EQ(next.cost, 1000);
}

TEST(LockModel, PatienceSucceedsWhenWaitFits) {
  LockModel lock;
  lock.Acquire(0, 1000);
  const auto acquired = lock.AcquireWithPatience(800, 500, 300);
  EXPECT_TRUE(acquired.acquired);
  EXPECT_EQ(acquired.cost, 200 + 500);
}

}  // namespace
}  // namespace tableau
