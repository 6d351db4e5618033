// Determinism contract of the parallel planning pipeline: for any thread
// count, the planner must emit a table that serializes byte-identically to
// the serial planner's, so operators can scale planner threads without ever
// changing a schedule (and so plan-cache entries stay interchangeable).
#include <gtest/gtest.h>

#include <vector>

#include "src/core/planner.h"

namespace tableau {
namespace {

std::vector<VcpuRequest> FairShareRequests(int num_vms, double utilization,
                                           TimeNs latency_goal) {
  std::vector<VcpuRequest> requests;
  for (int i = 0; i < num_vms; ++i) {
    requests.push_back(VcpuRequest{i, utilization, latency_goal});
  }
  return requests;
}

std::vector<std::uint8_t> PlanBytes(PlannerConfig config, int threads,
                                    const std::vector<VcpuRequest>& requests,
                                    PlanMethod* method_out = nullptr) {
  config.num_threads = threads;
  const Planner planner(config);
  const PlanResult plan = planner.Solve(PlanRequest::Full(requests));
  EXPECT_TRUE(plan.success) << plan.error;
  if (method_out != nullptr) {
    *method_out = plan.method;
  }
  return plan.table.Serialize();
}

void ExpectThreadCountInvariant(const PlannerConfig& config,
                                const std::vector<VcpuRequest>& requests) {
  const std::vector<std::uint8_t> serial = PlanBytes(config, 1, requests);
  for (const int threads : {2, 8}) {
    EXPECT_EQ(PlanBytes(config, threads, requests), serial)
        << "plan diverged at " << threads << " threads";
  }
}

// The paper's 16-core harness scenario: 12 guest cores, 4 VMs per core.
TEST(ParallelPlan, ByteIdentical16CoreScenario) {
  PlannerConfig config;
  config.num_cpus = 12;
  config.cores_per_socket = 6;
  ExpectThreadCountInvariant(config,
                             FairShareRequests(48, 0.25, 20 * kMillisecond));
}

// The paper's 48-core harness scenario: 44 guest cores, 176 VMs.
TEST(ParallelPlan, ByteIdentical48CoreScenario) {
  PlannerConfig config;
  config.num_cpus = 44;
  config.cores_per_socket = 22;
  ExpectThreadCountInvariant(config,
                             FairShareRequests(176, 0.25, 20 * kMillisecond));
}

// A tight latency goal produces short periods and the densest tables (the
// slowest Fig. 3 column) — the heaviest per-core EDF fan-out.
TEST(ParallelPlan, ByteIdenticalTightLatencyGoal) {
  PlannerConfig config;
  config.num_cpus = 44;
  ExpectThreadCountInvariant(config, FairShareRequests(176, 0.25, kMillisecond));
}

// Heterogeneous reservations exercise the worst-fit candidate scan with
// unequal loads and tie-breaks.
TEST(ParallelPlan, ByteIdenticalMixedReservations) {
  PlannerConfig config;
  config.num_cpus = 44;
  std::vector<VcpuRequest> requests;
  const double utilizations[] = {0.1, 0.25, 0.4, 0.55};
  const TimeNs goals[] = {5 * kMillisecond, 20 * kMillisecond, 60 * kMillisecond};
  int id = 0;
  for (int i = 0; i < 60; ++i) {
    requests.push_back(VcpuRequest{id++, utilizations[i % 4], goals[i % 3]});
  }
  ExpectThreadCountInvariant(config, requests);
}

// Six 60% reservations on four cores cannot be partitioned (no core takes
// two), forcing the C=D split-point search — the speculative parallel
// bisection must land on the exact serial split.
TEST(ParallelPlan, ByteIdenticalSemiPartitioned) {
  PlannerConfig config;
  config.num_cpus = 4;
  const std::vector<VcpuRequest> requests =
      FairShareRequests(6, 0.6, 40 * kMillisecond);
  PlanMethod method;
  const std::vector<std::uint8_t> serial = PlanBytes(config, 1, requests, &method);
  EXPECT_EQ(method, PlanMethod::kSemiPartitioned);
  for (const int threads : {2, 8}) {
    EXPECT_EQ(PlanBytes(config, threads, requests), serial)
        << "semi-partitioned plan diverged at " << threads << " threads";
  }
}

// Incremental replanning (arrival + departure) through the parallel
// pipeline must match the serial incremental result byte for byte.
TEST(ParallelPlan, ByteIdenticalIncremental) {
  PlannerConfig base;
  base.num_cpus = 12;
  const std::vector<VcpuRequest> initial =
      FairShareRequests(40, 0.25, 20 * kMillisecond);
  const std::vector<VcpuRequest> added = {{100, 0.25, 20 * kMillisecond},
                                          {101, 0.5, 10 * kMillisecond}};
  const std::vector<VcpuId> departed = {3, 17};

  std::vector<std::uint8_t> serial;
  for (const int threads : {1, 2, 8}) {
    PlannerConfig config = base;
    config.num_threads = threads;
    const Planner planner(config);
    const PlanResult first = planner.Solve(PlanRequest::Full(initial));
    ASSERT_TRUE(first.success) << first.error;
    const PlanResult second = planner.Solve(PlanRequest::Delta(first, added, departed));
    ASSERT_TRUE(second.success) << second.error;
    if (threads == 1) {
      serial = second.table.Serialize();
    } else {
      EXPECT_EQ(second.table.Serialize(), serial)
          << "incremental plan diverged at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace tableau
