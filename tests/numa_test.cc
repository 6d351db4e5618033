// NUMA-affinity placement tests (VcpuRequest::socket_affinity and the
// NUMA-aware worst-fit-decreasing partitioner).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/core/planner.h"
#include "src/rt/hyperperiod.h"
#include "src/rt/partition.h"
#include "tests/table_oracles.h"

namespace tableau {
namespace {

TEST(NumaPartition, RespectsSocketConstraint) {
  const TimeNs h = 1000;
  std::vector<PeriodicTask> tasks = {
      PeriodicTask::Implicit(0, 300, 1000), PeriodicTask::Implicit(1, 300, 1000),
      PeriodicTask::Implicit(2, 300, 1000), PeriodicTask::Implicit(3, 300, 1000)};
  // 4 cores, 2 per socket; all tasks pinned to socket 1.
  std::map<VcpuId, int> socket_of = {{0, 1}, {1, 1}, {2, 1}, {3, 1}};
  const PartitionResult result = WorstFitDecreasingNuma(tasks, socket_of, 4, 2, h);
  ASSERT_TRUE(result.complete);
  EXPECT_TRUE(result.core_tasks[0].empty());
  EXPECT_TRUE(result.core_tasks[1].empty());
  EXPECT_EQ(result.core_tasks[2].size() + result.core_tasks[3].size(), 4u);
}

TEST(NumaPartition, UnconstrainedTasksUseAnyCore) {
  const TimeNs h = 1000;
  std::vector<PeriodicTask> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(PeriodicTask::Implicit(i, 400, 1000));
  }
  const PartitionResult result = WorstFitDecreasingNuma(tasks, {}, 4, 2, h);
  ASSERT_TRUE(result.complete);
  for (const auto& core : result.core_tasks) {
    EXPECT_EQ(core.size(), 2u);  // Worst-fit balances 2 per core.
  }
}

TEST(NumaPartition, ConstraintCanForceFailure) {
  const TimeNs h = 1000;
  // Three 60% tasks pinned to socket 0 (2 cores): only two can fit.
  std::vector<PeriodicTask> tasks = {PeriodicTask::Implicit(0, 600, 1000),
                                     PeriodicTask::Implicit(1, 600, 1000),
                                     PeriodicTask::Implicit(2, 600, 1000)};
  std::map<VcpuId, int> socket_of = {{0, 0}, {1, 0}, {2, 0}};
  const PartitionResult result = WorstFitDecreasingNuma(tasks, socket_of, 4, 2, h);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.unassigned.size(), 1u);
  // Socket 1 stays empty despite having capacity.
  EXPECT_TRUE(result.core_tasks[2].empty());
  EXPECT_TRUE(result.core_tasks[3].empty());
}

TEST(NumaPartition, PartialTailSocketClampedToMachine) {
  const TimeNs h = 1000;
  // 5 cores at 2 per socket: socket 2 is a partial socket holding only core
  // 4. The scan range must clamp to the machine instead of touching a
  // nonexistent core 5.
  std::vector<PeriodicTask> tasks = {PeriodicTask::Implicit(0, 400, 1000),
                                     PeriodicTask::Implicit(1, 400, 1000)};
  std::map<VcpuId, int> socket_of = {{0, 2}, {1, 2}};
  const PartitionResult result = WorstFitDecreasingNuma(tasks, socket_of, 5, 2, h);
  ASSERT_TRUE(result.complete);
  for (int c = 0; c < 4; ++c) {
    EXPECT_TRUE(result.core_tasks[static_cast<std::size_t>(c)].empty()) << "core " << c;
  }
  EXPECT_EQ(result.core_tasks[4].size(), 2u);
}

TEST(NumaPlanner, AffinityReflectedInTable) {
  PlannerConfig config;
  config.num_cpus = 4;
  config.cores_per_socket = 2;
  const Planner planner(config);
  std::vector<VcpuRequest> requests;
  for (int i = 0; i < 8; ++i) {
    VcpuRequest request{i, 0.25, 20 * kMillisecond};
    request.socket_affinity = i < 4 ? 0 : 1;
    requests.push_back(request);
  }
  const PlanResult plan = planner.Solve(PlanRequest::Full(requests));
  ASSERT_TRUE(plan.success) << plan.error;
  for (const VcpuPlan& vcpu : plan.vcpus) {
    const std::vector<int> cpus = CpusOf(plan.table, vcpu.vcpu);
    ASSERT_EQ(cpus.size(), 1u);
    const int expected_socket = vcpu.vcpu < 4 ? 0 : 1;
    EXPECT_EQ(cpus[0] / 2, expected_socket) << "vcpu " << vcpu.vcpu;
  }
}

TEST(NumaPlanner, RejectsOutOfRangeSocket) {
  PlannerConfig config;
  config.num_cpus = 4;
  config.cores_per_socket = 2;
  const Planner planner(config);
  VcpuRequest request{0, 0.25, 20 * kMillisecond};
  request.socket_affinity = 5;
  const PlanResult plan = planner.Solve(PlanRequest::Full({request}));
  EXPECT_FALSE(plan.success);
  EXPECT_NE(plan.error.find("socket affinity"), std::string::npos);
}

TEST(NumaPlanner, AffinityIgnoredWhenTopologyDisabled) {
  PlannerConfig config;
  config.num_cpus = 2;  // cores_per_socket defaults to 0 = flat machine.
  const Planner planner(config);
  VcpuRequest request{0, 0.25, 20 * kMillisecond};
  request.socket_affinity = 7;  // Would be invalid if topology were active.
  const PlanResult plan = planner.Solve(PlanRequest::Full({request}));
  EXPECT_TRUE(plan.success) << plan.error;
}

TEST(NumaPlanner, MixedAffinityStaysWithinGuarantees) {
  PlannerConfig config;
  config.num_cpus = 6;
  config.cores_per_socket = 3;
  const Planner planner(config);
  std::vector<VcpuRequest> requests;
  int id = 0;
  for (int i = 0; i < 6; ++i) {
    VcpuRequest request{id++, 0.3, 30 * kMillisecond};
    request.socket_affinity = i % 2;
    requests.push_back(request);
  }
  for (int i = 0; i < 6; ++i) {
    requests.push_back({id++, 0.2, 60 * kMillisecond});  // Unconstrained.
  }
  const PlanResult plan = planner.Solve(PlanRequest::Full(requests));
  ASSERT_TRUE(plan.success) << plan.error;
  ASSERT_EQ(plan.table.Validate(), "");
  for (const VcpuPlan& vcpu : plan.vcpus) {
    EXPECT_GE(static_cast<double>(TotalService(plan.table, vcpu.vcpu)) /
                  static_cast<double>(plan.table.length()),
              vcpu.requested_utilization - 1e-3)
        << vcpu.vcpu;
    EXPECT_LE(MaxBlackout(plan.table, vcpu.vcpu), vcpu.latency_goal) << vcpu.vcpu;
  }
}

}  // namespace
}  // namespace tableau
