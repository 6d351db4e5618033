#include <gtest/gtest.h>

#include "src/core/coschedule.h"
#include "src/core/peephole.h"
#include "src/core/planner.h"
#include "tests/table_oracles.h"

namespace tableau {
namespace {

TEST(Coschedule, PairOverlapComputation) {
  std::vector<std::vector<Allocation>> per_core(2);
  per_core[0] = {{0, 0, 100}, {2, 100, 200}};
  per_core[1] = {{1, 50, 150}};
  EXPECT_EQ(PairOverlapNs(per_core, 0, 1), 50);  // [50,100).
  EXPECT_EQ(PairOverlapNs(per_core, 2, 1), 50);  // [100,150).
  EXPECT_EQ(PairOverlapNs(per_core, 0, 2), 0);
}

TEST(Coschedule, AvoidHintSlidesApart) {
  // vCPU 0 on core 0 and vCPU 1 on core 1 fully overlap, but both have idle
  // slack within their windows: the pass must separate them completely.
  std::vector<std::vector<PeriodicTask>> core_tasks(2);
  core_tasks[0] = {PeriodicTask::Implicit(0, 40, 200)};
  core_tasks[1] = {PeriodicTask::Implicit(1, 40, 200)};
  std::vector<std::vector<Allocation>> per_core(2);
  per_core[0] = {{0, 80, 120}};
  per_core[1] = {{1, 80, 120}};
  const CoscheduleStats stats = CoschedulePass(
      per_core, core_tasks, {{0, 1, CoschedulePreference::kAvoid}}, 200);
  EXPECT_EQ(stats.overlap_before, 40);
  EXPECT_EQ(stats.overlap_after, 0);
  EXPECT_GE(stats.moves, 1);
  // Guarantees intact.
  EXPECT_TRUE(ServicePerWindowPreserved(per_core[0], core_tasks[0], 200));
  EXPECT_TRUE(ServicePerWindowPreserved(per_core[1], core_tasks[1], 200));
}

TEST(Coschedule, PreferHintSlidesTogether) {
  std::vector<std::vector<PeriodicTask>> core_tasks(2);
  core_tasks[0] = {PeriodicTask::Implicit(0, 40, 200)};
  core_tasks[1] = {PeriodicTask::Implicit(1, 40, 200)};
  std::vector<std::vector<Allocation>> per_core(2);
  per_core[0] = {{0, 0, 40}};
  per_core[1] = {{1, 160, 200}};
  const CoscheduleStats stats = CoschedulePass(
      per_core, core_tasks, {{0, 1, CoschedulePreference::kPrefer}}, 200);
  EXPECT_EQ(stats.overlap_before, 0);
  EXPECT_EQ(stats.overlap_after, 40);  // Fully gang-aligned.
  EXPECT_TRUE(ServicePerWindowPreserved(per_core[0], core_tasks[0], 200));
  EXPECT_TRUE(ServicePerWindowPreserved(per_core[1], core_tasks[1], 200));
}

TEST(Coschedule, RespectsWindowBoundaries) {
  // vCPU 0's job lives in window [0,100): it cannot slide past t=100 even
  // though the core is idle there, so 20 ns of overlap must remain.
  std::vector<std::vector<PeriodicTask>> core_tasks(2);
  core_tasks[0] = {PeriodicTask::Implicit(0, 40, 100)};
  core_tasks[1] = {PeriodicTask::Implicit(1, 120, 200)};
  std::vector<std::vector<Allocation>> per_core(2);
  per_core[0] = {{0, 40, 80}, {0, 100, 140}};
  per_core[1] = {{1, 0, 120}};
  const CoscheduleStats stats = CoschedulePass(
      per_core, core_tasks, {{0, 1, CoschedulePreference::kAvoid}}, 200);
  // vCPU 0's first job cannot escape vCPU 1's long allocation within its
  // own window, so some overlap necessarily remains.
  EXPECT_LT(stats.overlap_after, stats.overlap_before);
  EXPECT_GT(stats.overlap_after, 0);
  EXPECT_TRUE(ServicePerWindowPreserved(per_core[0], core_tasks[0], 200));
}

TEST(Coschedule, NeverOverlapsNeighbours) {
  // Sliding must respect neighbouring allocations on the same core.
  std::vector<std::vector<PeriodicTask>> core_tasks(2);
  core_tasks[0] = {PeriodicTask::Implicit(0, 30, 100), PeriodicTask::Implicit(2, 30, 100)};
  core_tasks[1] = {PeriodicTask::Implicit(1, 30, 100)};
  std::vector<std::vector<Allocation>> per_core(2);
  per_core[0] = {{0, 30, 60}, {2, 60, 90}};
  per_core[1] = {{1, 30, 60}};
  CoschedulePass(per_core, core_tasks, {{0, 1, CoschedulePreference::kAvoid}}, 100);
  TimeNs prev_end = 0;
  for (const Allocation& alloc : per_core[0]) {
    EXPECT_GE(alloc.start, prev_end);
    prev_end = alloc.end;
  }
  EXPECT_TRUE(ServicePerWindowPreserved(per_core[0], core_tasks[0], 100));
}

TEST(Coschedule, PlannerTablesStayValidAfterPass) {
  // Run the pass on real planner output and rebuild the table: validation
  // and guarantees must hold.
  PlannerConfig config;
  config.num_cpus = 4;
  const Planner planner(config);
  std::vector<VcpuRequest> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back({i, 0.3, 40 * kMillisecond});
  }
  PlanResult plan = planner.Solve(PlanRequest::Full(requests));
  ASSERT_TRUE(plan.success);

  std::vector<std::vector<Allocation>> per_core(4);
  for (int c = 0; c < 4; ++c) {
    per_core[static_cast<std::size_t>(c)] = plan.table.cpu(c).allocations;
  }
  const CoscheduleStats stats =
      CoschedulePass(per_core, plan.core_tasks,
                     {{0, 1, CoschedulePreference::kAvoid},
                      {2, 3, CoschedulePreference::kAvoid}},
                     plan.table.length());
  EXPECT_LE(stats.overlap_after, stats.overlap_before);

  const SchedulingTable rebuilt =
      SchedulingTable::Build(plan.table.length(), std::move(per_core));
  EXPECT_EQ(rebuilt.Validate(), "");
  for (const VcpuPlan& vcpu : plan.vcpus) {
    EXPECT_EQ(TotalService(rebuilt, vcpu.vcpu), TotalService(plan.table, vcpu.vcpu));
    EXPECT_LE(MaxBlackout(rebuilt, vcpu.vcpu), vcpu.blackout_bound);
  }
}

}  // namespace
}  // namespace tableau
