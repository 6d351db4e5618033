#include <gtest/gtest.h>

#include <memory>

#include "src/core/planner.h"
#include "src/hypervisor/machine.h"
#include "src/schedulers/credit.h"
#include "src/schedulers/credit2.h"
#include "src/schedulers/rtds.h"
#include "src/schedulers/tableau_scheduler.h"
#include "src/workloads/stress.h"

namespace tableau {
namespace {

struct TestMachine {
  Vcpu* AddCpuHog(const VcpuParams& params) {
    Vcpu* vcpu = machine->AddVcpu(params);
    hogs.push_back(std::make_unique<CpuHogWorkload>(machine.get(), vcpu));
    hogs.back()->Start(0);
    return vcpu;
  }

  std::unique_ptr<Machine> machine;
  VcpuScheduler* scheduler_raw = nullptr;
  std::vector<std::unique_ptr<CpuHogWorkload>> hogs;
};

template <typename Scheduler, typename... Args>
TestMachine MakeMachine(int cpus, int per_socket, Args&&... args) {
  TestMachine tm;
  MachineConfig config;
  config.num_cpus = cpus;
  config.cores_per_socket = per_socket;
  auto owned = std::make_unique<Scheduler>(std::forward<Args>(args)...);
  tm.scheduler_raw = owned.get();
  tm.machine = std::make_unique<Machine>(config, std::move(owned));
  return tm;
}

double Share(const Vcpu* vcpu, TimeNs duration) {
  return static_cast<double>(vcpu->total_service()) / static_cast<double>(duration);
}

// ---------- Credit ----------

TEST(Credit, UncappedSingleHogGetsFullCpu) {
  TestMachine tm = MakeMachine<CreditScheduler>(
      1, 1, CreditScheduler::Options{});
  Vcpu* vcpu = tm.AddCpuHog(VcpuParams{});
  tm.machine->Start();
  tm.machine->RunFor(kSecond);
  EXPECT_GT(Share(vcpu, kSecond), 0.98);
}

TEST(Credit, EqualWeightsShareEqually) {
  TestMachine tm = MakeMachine<CreditScheduler>(
      1, 1, CreditScheduler::Options{});
  Vcpu* a = tm.AddCpuHog(VcpuParams{});
  Vcpu* b = tm.AddCpuHog(VcpuParams{});
  tm.machine->Start();
  tm.machine->RunFor(2 * kSecond);
  EXPECT_NEAR(Share(a, 2 * kSecond), Share(b, 2 * kSecond), 0.05);
}

TEST(Credit, WeightsRespectedProportionally) {
  TestMachine tm = MakeMachine<CreditScheduler>(
      1, 1, CreditScheduler::Options{});
  VcpuParams heavy;
  heavy.weight = 768;
  VcpuParams light;
  light.weight = 256;
  Vcpu* a = tm.AddCpuHog(heavy);
  Vcpu* b = tm.AddCpuHog(light);
  tm.machine->Start();
  tm.machine->RunFor(4 * kSecond);
  // 3:1 weights -> roughly 75% / 25%.
  EXPECT_NEAR(Share(a, 4 * kSecond), 0.75, 0.08);
  EXPECT_NEAR(Share(b, 4 * kSecond), 0.25, 0.08);
}

TEST(Credit, CapEnforced) {
  TestMachine tm = MakeMachine<CreditScheduler>(
      1, 1, CreditScheduler::Options{});
  VcpuParams capped;
  capped.cap = 0.25;
  Vcpu* vcpu = tm.AddCpuHog(capped);
  tm.machine->Start();
  tm.machine->RunFor(3 * kSecond);
  // Parked once per accounting period after burning the cap.
  EXPECT_NEAR(Share(vcpu, 3 * kSecond), 0.25, 0.03);
}

TEST(Credit, CappedVcpuParkedUntilAccounting) {
  // A capped CPU hog's service gaps reflect the accounting period: it burns
  // its 25% (7.5 ms of a 30 ms period) and waits out the rest.
  TestMachine tm = MakeMachine<CreditScheduler>(
      1, 1, CreditScheduler::Options{});
  VcpuParams capped;
  capped.cap = 0.25;
  Vcpu* vcpu = tm.AddCpuHog(capped);
  vcpu->EnableInstrumentation();
  tm.machine->Start();
  tm.machine->RunFor(3 * kSecond);
  EXPECT_GT(vcpu->service_gaps().Max(), 15 * kMillisecond);
  EXPECT_LT(vcpu->service_gaps().Max(), 45 * kMillisecond);
}

TEST(Credit, FourCappedVmsPerCoreDelaysTensOfMs) {
  // The Fig. 5(a) effect: with four capped VMs per core, a VM can wait for
  // its credit replenishment while others drain theirs.
  TestMachine tm = MakeMachine<CreditScheduler>(
      1, 1, CreditScheduler::Options{});
  VcpuParams capped;
  capped.cap = 0.25;
  Vcpu* vantage = tm.AddCpuHog(capped);
  vantage->EnableInstrumentation();
  for (int i = 0; i < 3; ++i) {
    tm.AddCpuHog(capped);
  }
  tm.machine->Start();
  tm.machine->RunFor(5 * kSecond);
  EXPECT_GT(vantage->service_gaps().Max(), 10 * kMillisecond);
  EXPECT_NEAR(Share(vantage, 5 * kSecond), 0.25, 0.05);
}

TEST(Credit, WorkStealingUsesIdleCores) {
  // Two CPU hogs on a 2-core machine must both run ~100% even though both
  // initially enqueue on the same runqueue (round-robin assignment is by id,
  // but wakeup placement uses last_cpu = none -> info.cpu).
  TestMachine tm = MakeMachine<CreditScheduler>(
      2, 2, CreditScheduler::Options{});
  Vcpu* a = tm.AddCpuHog(VcpuParams{});
  Vcpu* b = tm.AddCpuHog(VcpuParams{});
  tm.machine->Start();
  tm.machine->RunFor(kSecond);
  EXPECT_GT(Share(a, kSecond) + Share(b, kSecond), 1.9);
}

TEST(Credit, BoostImprovesWakeLatencyAgainstCpuHogs) {
  CreditScheduler::Options boosted;
  CreditScheduler::Options unboosted;
  unboosted.boost_enabled = false;
  TimeNs max_latency[2];
  int index = 0;
  for (const auto& options : {boosted, unboosted}) {
    TestMachine tm = MakeMachine<CreditScheduler>(1, 1, options);
    // An I/O-ish vCPU woken periodically, competing with 2 CPU hogs.
    Vcpu* io = tm.machine->AddVcpu(VcpuParams{});
    io->EnableInstrumentation();
    StressIoWorkload::Config stress_config;
    stress_config.compute = 100 * kMicrosecond;
    stress_config.io_wait = 5 * kMillisecond;
    StressIoWorkload stress(tm.machine.get(), io, stress_config);
    stress.Start(0);
    tm.AddCpuHog(VcpuParams{});
    tm.AddCpuHog(VcpuParams{});
    tm.machine->Start();
    tm.machine->RunFor(3 * kSecond);
    max_latency[index++] = io->wakeup_latency().Percentile(0.99);
  }
  EXPECT_LT(max_latency[0], max_latency[1]);
}

// ---------- Credit2 ----------

TEST(Credit2, SingleHogGetsFullCpu) {
  TestMachine tm = MakeMachine<Credit2Scheduler>(
      1, 1, Credit2Scheduler::Options{});
  Vcpu* vcpu = tm.AddCpuHog(VcpuParams{});
  tm.machine->Start();
  tm.machine->RunFor(kSecond);
  EXPECT_GT(Share(vcpu, kSecond), 0.97);
}

TEST(Credit2, FairAmongEqualHogs) {
  TestMachine tm = MakeMachine<Credit2Scheduler>(
      1, 1, Credit2Scheduler::Options{});
  Vcpu* a = tm.AddCpuHog(VcpuParams{});
  Vcpu* b = tm.AddCpuHog(VcpuParams{});
  Vcpu* c = tm.AddCpuHog(VcpuParams{});
  tm.machine->Start();
  tm.machine->RunFor(3 * kSecond);
  EXPECT_NEAR(Share(a, 3 * kSecond), 1.0 / 3, 0.05);
  EXPECT_NEAR(Share(b, 3 * kSecond), 1.0 / 3, 0.05);
  EXPECT_NEAR(Share(c, 3 * kSecond), 1.0 / 3, 0.05);
}

TEST(Credit2, UsesAllCoresInSocket) {
  TestMachine tm = MakeMachine<Credit2Scheduler>(
      4, 4, Credit2Scheduler::Options{});
  std::vector<Vcpu*> vcpus;
  for (int i = 0; i < 4; ++i) {
    vcpus.push_back(tm.AddCpuHog(VcpuParams{}));
  }
  tm.machine->Start();
  tm.machine->RunFor(kSecond);
  double total = 0;
  for (const Vcpu* vcpu : vcpus) {
    total += Share(vcpu, kSecond);
  }
  EXPECT_GT(total, 3.8);
}

TEST(Credit2, NoBoostMeansHigherIoWakeLatencyThanCredit) {
  // Credit2 removed boosting; against CPU hogs, an I/O vCPU's p99 wake
  // latency should be no better than boosted Credit's.
  TimeNs latency_credit = 0;
  TimeNs latency_credit2 = 0;
  {
    TestMachine tm = MakeMachine<CreditScheduler>(
        1, 1, CreditScheduler::Options{});
    Vcpu* io = tm.machine->AddVcpu(VcpuParams{});
    io->EnableInstrumentation();
    StressIoWorkload::Config config;
    config.compute = 100 * kMicrosecond;
    config.io_wait = 5 * kMillisecond;
    StressIoWorkload stress(tm.machine.get(), io, config);
    stress.Start(0);
    tm.AddCpuHog(VcpuParams{});
    tm.machine->Start();
    tm.machine->RunFor(3 * kSecond);
    latency_credit = io->wakeup_latency().Percentile(0.99);
  }
  {
    TestMachine tm = MakeMachine<Credit2Scheduler>(
        1, 1, Credit2Scheduler::Options{});
    Vcpu* io = tm.machine->AddVcpu(VcpuParams{});
    io->EnableInstrumentation();
    StressIoWorkload::Config config;
    config.compute = 100 * kMicrosecond;
    config.io_wait = 5 * kMillisecond;
    StressIoWorkload stress(tm.machine.get(), io, config);
    stress.Start(0);
    tm.AddCpuHog(VcpuParams{});
    tm.machine->Start();
    tm.machine->RunFor(3 * kSecond);
    latency_credit2 = io->wakeup_latency().Percentile(0.99);
  }
  EXPECT_LE(latency_credit, latency_credit2);
}

// ---------- RTDS ----------

VcpuParams Reservation(double utilization, TimeNs latency) {
  VcpuParams params;
  params.utilization = utilization;
  params.latency_goal = latency;
  return params;
}

TEST(Rtds, BudgetCapsUtilization) {
  TestMachine tm =
      MakeMachine<RtdsScheduler>(1, 1);
  Vcpu* vcpu = tm.AddCpuHog(Reservation(0.25, 20 * kMillisecond));
  tm.machine->Start();
  tm.machine->RunFor(3 * kSecond);
  EXPECT_NEAR(Share(vcpu, 3 * kSecond), 0.25, 0.02);
}

TEST(Rtds, FourReservationsPerCoreAllServed) {
  TestMachine tm =
      MakeMachine<RtdsScheduler>(1, 1);
  std::vector<Vcpu*> vcpus;
  for (int i = 0; i < 4; ++i) {
    vcpus.push_back(tm.AddCpuHog(Reservation(0.25, 20 * kMillisecond)));
  }
  tm.machine->Start();
  tm.machine->RunFor(3 * kSecond);
  for (const Vcpu* vcpu : vcpus) {
    EXPECT_NEAR(Share(vcpu, 3 * kSecond), 0.25, 0.03) << vcpu->id();
  }
}

TEST(Rtds, SchedulingDelayBoundedByPeriod) {
  // A CPU-bound reservation's service gap is bounded by roughly
  // 2*(T - C) plus scheduling noise (Fig. 5a: ~10-13 ms for this config).
  TestMachine tm =
      MakeMachine<RtdsScheduler>(1, 1);
  Vcpu* vantage = tm.AddCpuHog(Reservation(0.25, 20 * kMillisecond));
  vantage->EnableInstrumentation();
  for (int i = 0; i < 3; ++i) {
    tm.AddCpuHog(Reservation(0.25, 20 * kMillisecond));
  }
  tm.machine->Start();
  tm.machine->RunFor(5 * kSecond);
  EXPECT_LT(vantage->service_gaps().Max(), 21 * kMillisecond);
  EXPECT_GT(vantage->service_gaps().Max(), 5 * kMillisecond);
}

TEST(Rtds, EarliestDeadlineWins) {
  // Two reservations, one with a much shorter period: the short-period vCPU
  // must meet its tighter latency even under contention.
  TestMachine tm =
      MakeMachine<RtdsScheduler>(1, 1);
  Vcpu* tight = tm.AddCpuHog(Reservation(0.3, 2 * kMillisecond));
  tight->EnableInstrumentation();
  tm.AddCpuHog(Reservation(0.5, 60 * kMillisecond));
  tm.machine->Start();
  tm.machine->RunFor(3 * kSecond);
  EXPECT_NEAR(Share(tight, 3 * kSecond), 0.3, 0.05);
  EXPECT_LT(tight->service_gaps().Max(), 3 * kMillisecond);
}

TEST(Rtds, GlobalLockCostGrowsWithCoreCount) {
  // Run the same per-core workload on 4 and 16 cores; the mean Migrate op
  // cost must grow markedly (Table 1 vs Table 2's RTDS collapse).
  double migrate_cost[2];
  int index = 0;
  for (const int cores : {4, 16}) {
    TestMachine tm = MakeMachine<RtdsScheduler>(
        cores, cores / 2);
    std::vector<std::unique_ptr<StressIoWorkload>> stress;
    for (int i = 0; i < 4 * cores; ++i) {
      Vcpu* vcpu = tm.machine->AddVcpu(Reservation(0.25, 20 * kMillisecond));
      StressIoWorkload::Config config;
      config.seed = static_cast<std::uint64_t>(i + 1);
      stress.push_back(std::make_unique<StressIoWorkload>(tm.machine.get(), vcpu, config));
      stress.back()->Start(0);
    }
    tm.machine->Start();
    tm.machine->RunFor(kSecond);
    migrate_cost[index++] = tm.machine->metrics()
                                .Snapshot()
                                .values.at(SchedOpMetric(SchedOp::kMigrate))
                                .hist.Mean();
  }
  EXPECT_GT(migrate_cost[1], 2.0 * migrate_cost[0]);
}

// ---------- Tableau ----------

struct TableauFixture {
  TableauFixture(int cpus, bool capped, int vms, double utilization = 0.25,
                 TimeNs latency = 20 * kMillisecond) {
    TableauDispatcher::Config dispatcher;
    dispatcher.work_conserving = !capped;
    auto owned = std::make_unique<TableauScheduler>(dispatcher);
    scheduler = owned.get();
    MachineConfig config;
    config.num_cpus = cpus;
    config.cores_per_socket = cpus;
    machine = std::make_unique<Machine>(config, std::move(owned));
    std::vector<VcpuRequest> requests;
    for (int i = 0; i < vms; ++i) {
      VcpuParams params;
      params.cap = capped ? utilization : 0.0;
      params.utilization = utilization;
      params.latency_goal = latency;
      vcpus.push_back(machine->AddVcpu(params));
      requests.push_back(VcpuRequest{i, utilization, latency});
    }
    PlannerConfig planner_config;
    planner_config.num_cpus = cpus;
    plan = Planner(planner_config).Solve(PlanRequest::Full(requests));
    TABLEAU_CHECK(plan.success);
    scheduler->PushTable(std::make_shared<SchedulingTable>(plan.table));
  }

  std::unique_ptr<Machine> machine;
  TableauScheduler* scheduler;
  std::vector<Vcpu*> vcpus;
  PlanResult plan;
};

TEST(TableauSched, CappedHogGetsExactlyReservation) {
  TableauFixture f(1, /*capped=*/true, /*vms=*/4);
  std::vector<CpuHogWorkload> hogs;
  hogs.reserve(4);
  for (Vcpu* vcpu : f.vcpus) {
    hogs.emplace_back(f.machine.get(), vcpu).Start(0);
  }
  f.machine->Start();
  f.machine->RunFor(3 * kSecond);
  for (Vcpu* vcpu : f.vcpus) {
    EXPECT_NEAR(Share(vcpu, 3 * kSecond), 0.25, 0.01) << vcpu->id();
  }
}

TEST(TableauSched, CappedSchedulingDelayWithinBlackoutBound) {
  TableauFixture f(1, /*capped=*/true, /*vms=*/4);
  std::vector<CpuHogWorkload> hogs;
  hogs.reserve(4);
  for (Vcpu* vcpu : f.vcpus) {
    hogs.emplace_back(f.machine.get(), vcpu).Start(0);
  }
  f.vcpus[0]->EnableInstrumentation();
  f.machine->Start();
  f.machine->RunFor(5 * kSecond);
  // The paper observes ~10 ms (Fig. 5a): the table gap, not the 2(T-C)=19 ms
  // worst case, but never more than the bound.
  EXPECT_LE(f.vcpus[0]->service_gaps().Max(),
            f.plan.vcpus[0].blackout_bound + kMillisecond);
  EXPECT_GT(f.vcpus[0]->service_gaps().Max(), 5 * kMillisecond);
}

TEST(TableauSched, UncappedWorkConservingUsesIdleCycles) {
  TableauFixture f(1, /*capped=*/false, /*vms=*/4);
  // Only one VM active: it should soak up nearly the whole core.
  CpuHogWorkload hog(f.machine.get(), f.vcpus[0]);
  hog.Start(0);
  f.machine->Start();
  f.machine->RunFor(2 * kSecond);
  EXPECT_GT(Share(f.vcpus[0], 2 * kSecond), 0.9);
  EXPECT_GT(f.machine->SecondLevelFraction(0), 0.5);
}

TEST(TableauSched, CappedNotWorkConserving) {
  TableauFixture f(1, /*capped=*/true, /*vms=*/4);
  CpuHogWorkload hog(f.machine.get(), f.vcpus[0]);
  hog.Start(0);
  f.machine->Start();
  f.machine->RunFor(2 * kSecond);
  // Despite an otherwise idle machine, the capped VM stays at its share.
  EXPECT_NEAR(Share(f.vcpus[0], 2 * kSecond), 0.25, 0.01);
}

TEST(TableauSched, SecondLevelSharesIdleTimeFairly) {
  TableauFixture f(1, /*capped=*/false, /*vms=*/4);
  // Two active VMs, two idle: actives should split the core ~evenly.
  CpuHogWorkload hog_a(f.machine.get(), f.vcpus[0]);
  CpuHogWorkload hog_b(f.machine.get(), f.vcpus[1]);
  hog_a.Start(0);
  hog_b.Start(0);
  f.machine->Start();
  f.machine->RunFor(4 * kSecond);
  EXPECT_NEAR(Share(f.vcpus[0], 4 * kSecond), 0.5, 0.05);
  EXPECT_NEAR(Share(f.vcpus[1], 4 * kSecond), 0.5, 0.05);
}

TEST(TableauSched, SplitVcpuServedWithoutParallelism) {
  // Force semi-partitioning: 3 x 60% on 2 cores.
  TableauFixture f(2, /*capped=*/true, /*vms=*/3, /*utilization=*/0.6,
                   /*latency=*/40 * kMillisecond);
  bool any_split = false;
  for (const VcpuPlan& plan : f.plan.vcpus) {
    any_split = any_split || plan.split;
  }
  ASSERT_TRUE(any_split);
  std::vector<CpuHogWorkload> hogs;
  hogs.reserve(3);
  for (Vcpu* vcpu : f.vcpus) {
    hogs.emplace_back(f.machine.get(), vcpu).Start(0);
  }
  f.machine->Start();
  f.machine->RunFor(3 * kSecond);
  for (Vcpu* vcpu : f.vcpus) {
    EXPECT_NEAR(Share(vcpu, 3 * kSecond), 0.6, 0.02) << vcpu->id();
  }
}

TEST(TableauSched, WakeupLatencyBoundedInCappedMode) {
  TableauFixture f(1, /*capped=*/true, /*vms=*/4);
  // Vantage blocks/wakes; others hog their slots.
  Vcpu* vantage = f.vcpus[0];
  vantage->EnableInstrumentation();
  StressIoWorkload::Config config;
  config.compute = 200 * kMicrosecond;
  config.io_wait = 7 * kMillisecond;
  StressIoWorkload stress(f.machine.get(), vantage, config);
  stress.Start(0);
  std::vector<CpuHogWorkload> hogs;
  hogs.reserve(3);
  for (int i = 1; i < 4; ++i) {
    hogs.emplace_back(f.machine.get(), f.vcpus[static_cast<std::size_t>(i)]).Start(0);
  }
  f.machine->Start();
  f.machine->RunFor(5 * kSecond);
  // Wake-to-dispatch latency never exceeds the blackout bound.
  EXPECT_LE(vantage->wakeup_latency().Max(), f.plan.vcpus[0].blackout_bound);
}

TEST(TableauSched, TableSwitchAtRuntime) {
  TableauFixture f(1, /*capped=*/true, /*vms=*/4);
  std::vector<CpuHogWorkload> hogs;
  hogs.reserve(4);
  for (Vcpu* vcpu : f.vcpus) {
    hogs.emplace_back(f.machine.get(), vcpu).Start(0);
  }
  f.machine->Start();
  f.machine->RunFor(500 * kMillisecond);

  // Re-plan: give vCPU 0 a 50% share, drop vCPU 3 to 5%.
  std::vector<VcpuRequest> requests = {{0, 0.50, 20 * kMillisecond},
                                       {1, 0.25, 20 * kMillisecond},
                                       {2, 0.20, 20 * kMillisecond},
                                       {3, 0.05, 20 * kMillisecond}};
  PlannerConfig config;
  config.num_cpus = 1;
  const PlanResult new_plan = Planner(config).Solve(PlanRequest::Full(requests));
  ASSERT_TRUE(new_plan.success);
  f.scheduler->PushTable(std::make_shared<SchedulingTable>(new_plan.table));

  const TimeNs before = f.vcpus[0]->total_service();
  f.machine->RunFor(2 * kSecond + 300 * kMillisecond);
  // Skip the transition window, then measure the last 2s against the new
  // share.
  const double share =
      static_cast<double>(f.vcpus[0]->total_service() - before) / ToSec(2300 * kMillisecond) /
      1e9;
  EXPECT_GT(share, 0.42);  // Clearly reflects the new 50% reservation.
}

}  // namespace
}  // namespace tableau
