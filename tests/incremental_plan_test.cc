// Tests for PlanRequest::Delta solves (per-core incremental replanning, the
// Sec. 7.1 optimization).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "src/common/rng.h"
#include "src/core/planner.h"

namespace tableau {
namespace {

std::vector<VcpuRequest> UniformRequests(int count, double utilization, TimeNs latency,
                                         int first_id = 0) {
  std::vector<VcpuRequest> requests;
  for (int i = 0; i < count; ++i) {
    requests.push_back(VcpuRequest{first_id + i, utilization, latency});
  }
  return requests;
}

double Granted(const SchedulingTable& table, VcpuId vcpu) {
  return static_cast<double>(table.TotalService(vcpu)) /
         static_cast<double>(table.length());
}

TEST(IncrementalPlan, AddOneVmTouchesOneCore) {
  PlannerConfig config;
  config.num_cpus = 8;
  const Planner planner(config);
  const PlanResult base =
      planner.Solve(PlanRequest::Full(UniformRequests(16, 0.25, 20 * kMillisecond)));
  ASSERT_TRUE(base.success);

  const PlanResult incremental = planner.Solve(PlanRequest::Delta(
      base, UniformRequests(1, 0.25, 20 * kMillisecond, /*first_id=*/16)));
  ASSERT_TRUE(incremental.success);
  EXPECT_EQ(incremental.method, PlanMethod::kPartitioned);
  EXPECT_EQ(incremental.dirty_cores.size(), 1u);
  EXPECT_EQ(incremental.vcpus.size(), 17u);
  EXPECT_EQ(incremental.table.Validate(), "");

  // Untouched cores keep byte-identical allocations.
  const std::set<int> dirty(incremental.dirty_cores.begin(),
                            incremental.dirty_cores.end());
  for (int c = 0; c < 8; ++c) {
    if (dirty.find(c) == dirty.end()) {
      EXPECT_EQ(incremental.table.cpu(c).allocations, base.table.cpu(c).allocations)
          << "core " << c;
    }
  }
  // The new vCPU receives its share.
  EXPECT_GE(Granted(incremental.table, 16), 0.25 - 1e-6);
}

TEST(IncrementalPlan, RemoveOneVmTouchesOneCore) {
  PlannerConfig config;
  config.num_cpus = 8;
  const Planner planner(config);
  const PlanResult base =
      planner.Solve(PlanRequest::Full(UniformRequests(24, 0.25, 20 * kMillisecond)));
  ASSERT_TRUE(base.success);

  const PlanResult incremental = planner.Solve(PlanRequest::Delta(base, {}, {5}));
  ASSERT_TRUE(incremental.success);
  EXPECT_EQ(incremental.dirty_cores.size(), 1u);
  EXPECT_EQ(incremental.vcpus.size(), 23u);
  EXPECT_EQ(incremental.table.TotalService(5), 0);
  // No plan entry for the departed vCPU.
  EXPECT_TRUE(std::none_of(incremental.vcpus.begin(), incremental.vcpus.end(),
                           [](const VcpuPlan& p) { return p.vcpu == 5; }));
}

TEST(IncrementalPlan, GuaranteesHoldAfterChurn) {
  PlannerConfig config;
  config.num_cpus = 6;
  const Planner planner(config);
  PlanResult plan =
      planner.Solve(PlanRequest::Full(UniformRequests(12, 0.25, 30 * kMillisecond)));
  ASSERT_TRUE(plan.success);

  Rng rng(7);
  int next_id = 12;
  std::set<VcpuId> live;
  for (int i = 0; i < 12; ++i) {
    live.insert(i);
  }
  for (int round = 0; round < 20; ++round) {
    std::vector<VcpuRequest> added;
    std::vector<VcpuId> departed;
    if (!live.empty() && rng.UniformDouble() < 0.5) {
      auto it = live.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int>(live.size()) - 1));
      departed.push_back(*it);
      live.erase(it);
    }
    if (live.size() < 22 && rng.UniformDouble() < 0.7) {
      const double u = rng.UniformDouble(0.05, 0.4);
      added.push_back(VcpuRequest{next_id, u, rng.UniformInt(10, 90) * kMillisecond});
      live.insert(next_id);
      ++next_id;
    }
    plan = planner.Solve(PlanRequest::Delta(plan, added, departed));
    ASSERT_TRUE(plan.success) << "round " << round << ": " << plan.error;
    ASSERT_EQ(plan.table.Validate(), "") << "round " << round;
    ASSERT_EQ(plan.vcpus.size(), live.size()) << "round " << round;
    for (const VcpuPlan& vcpu : plan.vcpus) {
      EXPECT_TRUE(live.count(vcpu.vcpu)) << "round " << round;
      const double donated = static_cast<double>(vcpu.donated_ns) /
                             static_cast<double>(plan.table.length());
      EXPECT_GE(Granted(plan.table, vcpu.vcpu),
                vcpu.requested_utilization - donated - 1e-6)
          << "round " << round << " vcpu " << vcpu.vcpu;
      if (vcpu.latency_goal_met) {
        EXPECT_LE(plan.table.MaxBlackout(vcpu.vcpu), vcpu.latency_goal)
            << "round " << round << " vcpu " << vcpu.vcpu;
      }
    }
  }
}

TEST(IncrementalPlan, MatchesFullPlanGuarantees) {
  // The incremental result must grant the same guarantees as a from-scratch
  // plan of the same request set (placements may differ).
  PlannerConfig config;
  config.num_cpus = 4;
  const Planner planner(config);
  PlanResult incremental =
      planner.Solve(PlanRequest::Full(UniformRequests(8, 0.2, 40 * kMillisecond)));
  ASSERT_TRUE(incremental.success);
  incremental = planner.Solve(PlanRequest::Delta(
      incremental, UniformRequests(4, 0.2, 40 * kMillisecond, 8), {1, 3}));
  ASSERT_TRUE(incremental.success);

  const PlanResult full = planner.Solve(PlanRequest::Full(incremental.requests));
  ASSERT_TRUE(full.success);
  ASSERT_EQ(full.vcpus.size(), incremental.vcpus.size());
  std::map<VcpuId, const VcpuPlan*> full_by_id;
  for (const VcpuPlan& plan : full.vcpus) {
    full_by_id[plan.vcpu] = &plan;
  }
  for (const VcpuPlan& plan : incremental.vcpus) {
    const VcpuPlan& reference = *full_by_id.at(plan.vcpu);
    EXPECT_EQ(plan.period, reference.period) << plan.vcpu;
    EXPECT_LE(std::abs(plan.cost - reference.cost), 1) << plan.vcpu;  // Shave ns.
  }
}

TEST(IncrementalPlan, FallsBackWhenNoSingleCoreFits) {
  // Adding a 60% vCPU when every core has only ~50% spare forces a full
  // replan (splitting), which must still succeed.
  PlannerConfig config;
  config.num_cpus = 2;
  const Planner planner(config);
  PlanResult plan =
      planner.Solve(PlanRequest::Full(UniformRequests(2, 0.55, 40 * kMillisecond)));
  ASSERT_TRUE(plan.success);
  plan = planner.Solve(
      PlanRequest::Delta(plan, UniformRequests(1, 0.6, 40 * kMillisecond, 2)));
  ASSERT_TRUE(plan.success) << plan.error;
  EXPECT_NE(plan.method, PlanMethod::kPartitioned);
  EXPECT_GE(Granted(plan.table, 2), 0.6 - 1e-6);
}

TEST(IncrementalPlan, FallsBackOnOverUtilization) {
  PlannerConfig config;
  config.num_cpus = 2;
  const Planner planner(config);
  PlanResult plan =
      planner.Solve(PlanRequest::Full(UniformRequests(7, 0.25, 20 * kMillisecond)));
  ASSERT_TRUE(plan.success);
  plan = planner.Solve(
      PlanRequest::Delta(plan, UniformRequests(3, 0.25, 20 * kMillisecond, 7)));
  EXPECT_FALSE(plan.success);
  EXPECT_NE(plan.error.find("over-utilized"), std::string::npos);
}

TEST(IncrementalPlan, EmptyDeltaIsAFastNoOp) {
  PlannerConfig config;
  config.num_cpus = 4;
  const Planner planner(config);
  const PlanResult base =
      planner.Solve(PlanRequest::Full(UniformRequests(8, 0.25, 20 * kMillisecond)));
  ASSERT_TRUE(base.success);
  const PlanResult same = planner.Solve(PlanRequest::Delta(base));
  ASSERT_TRUE(same.success);
  EXPECT_TRUE(same.dirty_cores.empty());
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(same.table.cpu(c).allocations, base.table.cpu(c).allocations);
  }
}

TEST(IncrementalPlan, QuantizationShaveOnInsert) {
  // Filling the last slot of an exactly packed core requires the 1 ns shave
  // on insert (C = ceil(U*T) would not fit).
  PlannerConfig config;
  config.num_cpus = 1;
  const Planner planner(config);
  PlanResult plan =
      planner.Solve(PlanRequest::Full(UniformRequests(3, 0.25, kMillisecond)));
  ASSERT_TRUE(plan.success);
  plan = planner.Solve(
      PlanRequest::Delta(plan, UniformRequests(1, 0.25, kMillisecond, 3)));
  ASSERT_TRUE(plan.success) << plan.error;
  EXPECT_EQ(plan.method, PlanMethod::kPartitioned);
}

}  // namespace
}  // namespace tableau
