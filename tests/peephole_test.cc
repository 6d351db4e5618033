#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/peephole.h"
#include "src/core/planner.h"
#include "src/rt/edf_sim.h"
#include "src/rt/hyperperiod.h"
#include "tests/table_oracles.h"

namespace tableau {
namespace {

TEST(Peephole, MergesFragmentedJob) {
  // Task 0's job is served in two fragments around task 1 — all inside both
  // tasks' first window. A-B-A must become a merged A run plus B.
  std::vector<PeriodicTask> tasks = {PeriodicTask::Implicit(0, 40, 100),
                                     PeriodicTask::Implicit(1, 30, 100)};
  std::vector<Allocation> allocations = {{0, 0, 20}, {1, 20, 50}, {0, 50, 70}};
  const PeepholeStats stats = PeepholeOptimizeCore(allocations, tasks);
  EXPECT_EQ(stats.allocations_before, 3);
  EXPECT_EQ(stats.allocations_after, 2);
  EXPECT_GE(stats.swaps, 1);
  EXPECT_TRUE(ServicePerWindowPreserved(allocations, tasks, 100));
  // Non-overlapping, ordered.
  for (std::size_t i = 1; i < allocations.size(); ++i) {
    EXPECT_GE(allocations[i].start, allocations[i - 1].end);
  }
}

TEST(Peephole, RefusesSwapAcrossDeadline) {
  // The A-B-A triple [30,50) B[50,70) A[70,120): pushing B later lands it at
  // [100,120), past its own window [50,100); pulling it earlier lands it at
  // [30,50), before its release at 50. Both directions are illegal, so the
  // pattern must survive untouched.
  std::vector<PeriodicTask> tasks = {PeriodicTask::Implicit(0, 70, 200),
                                     PeriodicTask::Implicit(1, 20, 50)};
  std::vector<Allocation> allocations = {{1, 0, 20},    {0, 30, 50},  {1, 50, 70},
                                         {0, 70, 120},  {1, 120, 140}, {1, 150, 170}};
  ASSERT_TRUE(ServicePerWindowPreserved(allocations, tasks, 200));
  const PeepholeStats stats = PeepholeOptimizeCore(allocations, tasks);
  EXPECT_EQ(stats.swaps, 0);
  EXPECT_EQ(stats.allocations_after, 6);
  EXPECT_TRUE(ServicePerWindowPreserved(allocations, tasks, 200));
}

TEST(Peephole, NoChangeWhenNothingToGain) {
  std::vector<PeriodicTask> tasks = {PeriodicTask::Implicit(0, 50, 100),
                                     PeriodicTask::Implicit(1, 50, 100)};
  std::vector<Allocation> allocations = {{0, 0, 50}, {1, 50, 100}};
  const PeepholeStats stats = PeepholeOptimizeCore(allocations, tasks);
  EXPECT_EQ(stats.swaps, 0);
  EXPECT_EQ(stats.allocations_after, 2);
}

TEST(Peephole, DoesNotMoveBoundarySpanningRun) {
  // A merged allocation of task 0 spanning its own period boundary (job k
  // ends exactly where job k+1 starts) must never be relocated.
  std::vector<PeriodicTask> tasks = {PeriodicTask::Implicit(0, 50, 100),
                                     PeriodicTask::Implicit(1, 40, 200)};
  // Task 0: [60,100) of job 0 merged with [100,140) of job 1.
  std::vector<Allocation> allocations = {
      {0, 0, 10}, {1, 10, 50}, {0, 60, 140}, {0, 150, 160}};
  PeepholeOptimizeCore(allocations, tasks);
  EXPECT_TRUE(ServicePerWindowPreserved(allocations, tasks, 200));
}

TEST(Peephole, RandomizedEdfTablesStayCorrect) {
  // Run the pass over real EDF-generated tables and verify it never breaks
  // the per-window service property and never increases fragmentation.
  Rng rng(21);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<PeriodicTask> tasks;
    const std::vector<TimeNs> periods = {100, 200, 300, 400, 600, 1200};
    TimeNs demand = 0;
    int id = 0;
    while (id < 6) {
      const TimeNs period = periods[static_cast<std::size_t>(rng.UniformInt(0, 5))];
      const TimeNs cost = rng.UniformInt(5, period / 2);
      if (demand + cost * (1200 / period) > 1200) {
        break;
      }
      demand += cost * (1200 / period);
      tasks.push_back(PeriodicTask::Implicit(id++, cost, period));
    }
    if (tasks.empty()) {
      continue;
    }
    EdfSimResult sim = SimulateEdf(tasks, 1200);
    ASSERT_TRUE(sim.schedulable);
    ASSERT_TRUE(ServicePerWindowPreserved(sim.allocations, tasks, 1200));
    std::vector<Allocation> optimized = sim.allocations;
    const PeepholeStats stats = PeepholeOptimizeCore(optimized, tasks);
    EXPECT_TRUE(ServicePerWindowPreserved(optimized, tasks, 1200)) << "trial " << trial;
    EXPECT_LE(stats.allocations_after, stats.allocations_before) << "trial " << trial;
    TimeNs prev_end = 0;
    for (const Allocation& alloc : optimized) {
      EXPECT_GE(alloc.start, prev_end) << "trial " << trial;
      prev_end = alloc.end;
    }
  }
}

TEST(Peephole, PlannerIntegrationReducesAllocations) {
  // A mixed-tier workload fragments heavily; the pass must shrink the table
  // without violating any guarantee.
  std::vector<VcpuRequest> requests;
  int id = 0;
  for (int i = 0; i < 2; ++i) {
    requests.push_back({id++, 0.5, 10 * kMillisecond});
  }
  for (int i = 0; i < 4; ++i) {
    requests.push_back({id++, 0.25, 30 * kMillisecond});
  }
  for (int i = 0; i < 6; ++i) {
    requests.push_back({id++, 0.10, 100 * kMillisecond});
  }

  PlannerConfig plain_config;
  plain_config.num_cpus = 4;
  const PlanResult plain = Planner(plain_config).Solve(PlanRequest::Full(requests));
  ASSERT_TRUE(plain.success);

  PlannerConfig optimized_config = plain_config;
  optimized_config.peephole_pass = true;
  const PlanResult optimized =
      Planner(optimized_config).Solve(PlanRequest::Full(requests));
  ASSERT_TRUE(optimized.success);
  ASSERT_EQ(optimized.table.Validate(), "");

  std::size_t plain_allocs = 0;
  std::size_t optimized_allocs = 0;
  for (int c = 0; c < 4; ++c) {
    plain_allocs += plain.table.cpu(c).allocations.size();
    optimized_allocs += optimized.table.cpu(c).allocations.size();
  }
  EXPECT_LT(optimized_allocs, plain_allocs);

  for (const VcpuPlan& vcpu : optimized.vcpus) {
    const double donated = static_cast<double>(vcpu.donated_ns) /
                           static_cast<double>(optimized.table.length());
    EXPECT_GE(static_cast<double>(TotalService(optimized.table, vcpu.vcpu)) /
                  static_cast<double>(optimized.table.length()),
              vcpu.requested_utilization - donated - 1e-6)
        << vcpu.vcpu;
    EXPECT_LE(MaxBlackout(optimized.table, vcpu.vcpu), vcpu.blackout_bound) << vcpu.vcpu;
  }
}

TEST(Peephole, SkipsCoresWithSplitPieces) {
  std::vector<std::vector<PeriodicTask>> core_tasks(1);
  PeriodicTask piece;
  piece.vcpu = 0;
  piece.cost = 30;
  piece.period = 100;
  piece.deadline = 30;  // Zero-laxity C=D piece.
  piece.offset = 0;
  core_tasks[0] = {piece, PeriodicTask::Implicit(1, 20, 100)};
  std::vector<std::vector<Allocation>> per_core = {
      {{0, 0, 30}, {1, 30, 40}, {0, 100, 130}}};
  const auto before = per_core[0];
  PeepholeOptimize(per_core, core_tasks);
  EXPECT_EQ(per_core[0], before);
}

}  // namespace
}  // namespace tableau
