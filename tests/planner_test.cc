#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>

#include "src/common/rng.h"
#include "src/core/planner.h"
#include "src/rt/hyperperiod.h"
#include "tests/table_oracles.h"

namespace tableau {
namespace {

std::vector<VcpuRequest> UniformRequests(int count, double utilization, TimeNs latency) {
  std::vector<VcpuRequest> requests;
  for (int i = 0; i < count; ++i) {
    requests.push_back(VcpuRequest{i, utilization, latency});
  }
  return requests;
}

// Sum of a vCPU's requested utilization over the table, as actually granted.
double GrantedUtilization(const SchedulingTable& table, VcpuId vcpu) {
  return static_cast<double>(TotalService(table, vcpu)) /
         static_cast<double>(table.length());
}

TEST(Planner, PaperSetup48VmsOn12Cores) {
  PlannerConfig config;
  config.num_cpus = 12;
  const Planner planner(config);
  const PlanResult plan =
      planner.Solve(PlanRequest::Full(UniformRequests(48, 0.25, 20 * kMillisecond)));
  ASSERT_TRUE(plan.success) << plan.error;
  EXPECT_EQ(plan.method, PlanMethod::kPartitioned);
  EXPECT_EQ(plan.table.Validate(), "");
  for (const VcpuPlan& vcpu : plan.vcpus) {
    EXPECT_TRUE(vcpu.latency_goal_met);
    EXPECT_FALSE(vcpu.split);
    // Blackout measured in the actual table must respect the bound.
    EXPECT_LE(MaxBlackout(plan.table, vcpu.vcpu), vcpu.blackout_bound);
    // Utilization granted within ns quantization of the request.
    EXPECT_GE(GrantedUtilization(plan.table, vcpu.vcpu), 0.25 - 1e-6);
  }
}

TEST(Planner, UtilizationGuaranteeAcrossLatencyGoals) {
  for (const TimeNs latency : {kMillisecond, 30 * kMillisecond, 60 * kMillisecond,
                               100 * kMillisecond}) {
    PlannerConfig config;
    config.num_cpus = 4;
    const Planner planner(config);
    const PlanResult plan =
        planner.Solve(PlanRequest::Full(UniformRequests(16, 0.25, latency)));
    ASSERT_TRUE(plan.success) << plan.error << " latency " << latency;
    for (const VcpuPlan& vcpu : plan.vcpus) {
      EXPECT_LE(MaxBlackout(plan.table, vcpu.vcpu), latency)
          << "latency goal " << latency << " vcpu " << vcpu.vcpu;
    }
  }
}

TEST(Planner, RejectsOverUtilized) {
  PlannerConfig config;
  config.num_cpus = 2;
  const Planner planner(config);
  const PlanResult plan =
      planner.Solve(PlanRequest::Full(UniformRequests(9, 0.25, 20 * kMillisecond)));
  EXPECT_FALSE(plan.success);
  EXPECT_NE(plan.error.find("over-utilized"), std::string::npos);
}

TEST(Planner, RejectsBadRequests) {
  PlannerConfig config;
  config.num_cpus = 2;
  const Planner planner(config);
  EXPECT_FALSE(planner.Solve(PlanRequest::Full({{0, 0.0, kMillisecond}})).success);
  EXPECT_FALSE(planner.Solve(PlanRequest::Full({{0, 1.5, kMillisecond}})).success);
  EXPECT_FALSE(planner.Solve(PlanRequest::Full({{0, 0.5, 0}})).success);
  EXPECT_FALSE(
      planner.Solve(PlanRequest::Full({{0, 0.5, kMillisecond}, {0, 0.5, kMillisecond}}))
          .success);
}

TEST(Planner, EmptyRequestSetYieldsIdleTable) {
  PlannerConfig config;
  config.num_cpus = 2;
  const Planner planner(config);
  const PlanResult plan = planner.Solve(PlanRequest::Full({}));
  ASSERT_TRUE(plan.success);
  EXPECT_EQ(plan.table.num_cpus(), 2);
  EXPECT_EQ(plan.table.cpu(0).allocations.size(), 0u);
}

TEST(Planner, DedicatedCoreForFullUtilization) {
  PlannerConfig config;
  config.num_cpus = 3;
  const Planner planner(config);
  std::vector<VcpuRequest> requests = {{0, 1.0, kMillisecond},
                                       {1, 0.5, 20 * kMillisecond},
                                       {2, 0.5, 20 * kMillisecond}};
  const PlanResult plan = planner.Solve(PlanRequest::Full(requests));
  ASSERT_TRUE(plan.success) << plan.error;
  // vCPU 0 owns a full core.
  EXPECT_EQ(TotalService(plan.table, 0), plan.table.length());
  EXPECT_EQ(MaxBlackout(plan.table, 0), 0);
  const auto it = std::find_if(plan.vcpus.begin(), plan.vcpus.end(),
                               [](const VcpuPlan& v) { return v.vcpu == 0; });
  ASSERT_NE(it, plan.vcpus.end());
  EXPECT_TRUE(it->dedicated);
}

TEST(Planner, AllDedicatedLeavesNoSharedCore) {
  PlannerConfig config;
  config.num_cpus = 2;
  const Planner planner(config);
  const PlanResult plan = planner.Solve(
      PlanRequest::Full({{0, 1.0, kMillisecond}, {1, 1.0, kMillisecond}}));
  ASSERT_TRUE(plan.success) << plan.error;
  EXPECT_EQ(TotalService(plan.table, 0), plan.table.length());
  EXPECT_EQ(TotalService(plan.table, 1), plan.table.length());
}

TEST(Planner, TooManyDedicatedVcpusRejected) {
  PlannerConfig config;
  config.num_cpus = 2;
  const Planner planner(config);
  std::vector<VcpuRequest> requests = {
      {0, 1.0, kMillisecond}, {1, 1.0, kMillisecond}, {2, 0.5, 20 * kMillisecond}};
  EXPECT_FALSE(planner.Solve(PlanRequest::Full(requests)).success);
}

TEST(Planner, ExactFullPackAdmittedViaShaving) {
  // 4 cores x 4 VMs x 25% = exactly 100%: ceil-rounding would overflow by a
  // few ns; the shave pass must admit it.
  PlannerConfig config;
  config.num_cpus = 4;
  const Planner planner(config);
  const PlanResult plan =
      planner.Solve(PlanRequest::Full(UniformRequests(16, 0.25, 20 * kMillisecond)));
  ASSERT_TRUE(plan.success) << plan.error;
  for (const VcpuPlan& vcpu : plan.vcpus) {
    // Within 1 ns per period of the requested share.
    const double tolerance =
        1.0 / static_cast<double>(vcpu.period) + 1e-9;
    EXPECT_GE(vcpu.effective_utilization, 0.25 - tolerance);
  }
}

TEST(Planner, QuantizationShaveKeepsQuarterSharesPartitioned) {
  // 160 quarter-share VMs on 44 cores with a 1 ms goal: the chosen period is
  // not divisible by 4, so C = ceil(T/4) overflows each core by 2 ns and
  // naive partitioning fails. The quantization-aware retry must keep this
  // partitioned instead of escalating to the cluster stage.
  PlannerConfig config;
  config.num_cpus = 44;
  const Planner planner(config);
  const PlanResult plan =
      planner.Solve(PlanRequest::Full(UniformRequests(160, 0.25, kMillisecond)));
  ASSERT_TRUE(plan.success) << plan.error;
  EXPECT_EQ(plan.method, PlanMethod::kPartitioned);
  for (const VcpuPlan& vcpu : plan.vcpus) {
    // Within 1 ns per period of the requested share.
    EXPECT_GE(vcpu.effective_utilization,
              0.25 - 1.0 / static_cast<double>(vcpu.period) - 1e-12);
    EXPECT_LE(MaxBlackout(plan.table, vcpu.vcpu), kMillisecond);
  }
}

TEST(Planner, CoalescingNeverOverlapsClusteredPieces) {
  // Fair-share loads (U = m/n) that end in DP-Fair clusters: McNaughton
  // wrap-around puts a task's two pieces on adjacent cores, and coalescing
  // used to extend one piece over a sliver while the other still ran,
  // placing the vCPU on two cores at once (the planner aborted in Validate).
  struct Case {
    int cores;
    int vms;
    TimeNs latency;
  };
  for (const Case& c : {Case{4, 18, 2'219'340}, Case{6, 32, 5 * kMillisecond},
                        Case{5, 28, kMillisecond}}) {
    PlannerConfig config;
    config.num_cpus = c.cores;
    const Planner planner(config);
    const PlanResult plan = planner.Solve(PlanRequest::Full(UniformRequests(
        c.vms, static_cast<double>(c.cores) / c.vms, c.latency)));
    ASSERT_TRUE(plan.success) << plan.error;
    EXPECT_EQ(plan.method, PlanMethod::kClustered) << c.cores << " x " << c.vms;
    EXPECT_EQ(plan.table.Validate(), "");
  }
}

TEST(Planner, SemiPartitioningEngagesForUnpartitionableLoad) {
  // Three 60% vCPUs on two cores cannot be partitioned.
  PlannerConfig config;
  config.num_cpus = 2;
  const Planner planner(config);
  const PlanResult plan =
      planner.Solve(PlanRequest::Full(UniformRequests(3, 0.6, 40 * kMillisecond)));
  ASSERT_TRUE(plan.success) << plan.error;
  EXPECT_NE(plan.method, PlanMethod::kPartitioned);
  EXPECT_EQ(plan.table.Validate(), "");
  // At least one vCPU is split across both cores.
  const bool any_split = std::any_of(plan.vcpus.begin(), plan.vcpus.end(),
                                     [](const VcpuPlan& v) { return v.split; });
  EXPECT_TRUE(any_split);
  // Utilization guarantees still hold.
  for (const VcpuPlan& vcpu : plan.vcpus) {
    EXPECT_GE(GrantedUtilization(plan.table, vcpu.vcpu), 0.6 - 1e-6);
  }
}

TEST(Planner, SemiPartitionedLatencyStillBounded) {
  PlannerConfig config;
  config.num_cpus = 2;
  const Planner planner(config);
  const PlanResult plan =
      planner.Solve(PlanRequest::Full(UniformRequests(3, 0.6, 40 * kMillisecond)));
  ASSERT_TRUE(plan.success) << plan.error;
  for (const VcpuPlan& vcpu : plan.vcpus) {
    EXPECT_LE(MaxBlackout(plan.table, vcpu.vcpu), 40 * kMillisecond) << vcpu.vcpu;
  }
}

TEST(Planner, HighUtilizationManyVcpus) {
  // 8 cores, 15 vCPUs at 52%: 7.8 total; partitioning fits only one per
  // core -> semi-partitioning must engage and succeed.
  PlannerConfig config;
  config.num_cpus = 8;
  const Planner planner(config);
  const PlanResult plan =
      planner.Solve(PlanRequest::Full(UniformRequests(15, 0.52, 40 * kMillisecond)));
  ASSERT_TRUE(plan.success) << plan.error;
  EXPECT_EQ(plan.table.Validate(), "");
  for (const VcpuPlan& vcpu : plan.vcpus) {
    EXPECT_GE(GrantedUtilization(plan.table, vcpu.vcpu), 0.52 - 1e-6) << vcpu.vcpu;
  }
}

TEST(Planner, MixedTiersPlan) {
  // Price-differentiated tiers: gold 50%/10ms, silver 25%/30ms,
  // bronze 10%/100ms.
  PlannerConfig config;
  config.num_cpus = 4;
  const Planner planner(config);
  std::vector<VcpuRequest> requests;
  int id = 0;
  for (int i = 0; i < 3; ++i) {
    requests.push_back({id++, 0.5, 10 * kMillisecond});
  }
  for (int i = 0; i < 6; ++i) {
    requests.push_back({id++, 0.25, 30 * kMillisecond});
  }
  for (int i = 0; i < 9; ++i) {
    requests.push_back({id++, 0.10, 100 * kMillisecond});
  }
  const PlanResult plan = planner.Solve(PlanRequest::Full(requests));
  ASSERT_TRUE(plan.success) << plan.error;
  for (const VcpuPlan& vcpu : plan.vcpus) {
    EXPECT_LE(MaxBlackout(plan.table, vcpu.vcpu), vcpu.latency_goal) << vcpu.vcpu;
    // Granted share is the effective reservation minus reported coalescing
    // donations (exact accounting).
    const double donated =
        static_cast<double>(vcpu.donated_ns) / static_cast<double>(plan.table.length());
    EXPECT_GE(GrantedUtilization(plan.table, vcpu.vcpu),
              vcpu.requested_utilization - donated - 1e-6)
        << vcpu.vcpu;
    // Donations must stay small relative to the share (< 2% of it).
    EXPECT_LE(donated, 0.02 * vcpu.requested_utilization + 1e-9) << vcpu.vcpu;
  }
}

// FNV-1a over a solve's method, serialized table and admission breakdown.
class PlanHash {
 public:
  void Add(const PlanResult& plan) {
    EXPECT_TRUE(plan.success) << plan.error;
    Value(plan.method);
    for (const std::uint8_t byte : plan.table.Serialize()) {
      Value(byte);
    }
    Value(plan.admission.utilization);
    Value(plan.admission.density);
    Value(plan.admission.qpa);
    Value(plan.admission.simulation);
  }
  std::uint64_t value() const { return hash_; }

 private:
  template <typename T>
  void Value(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char byte : bytes) {
      hash_ = (hash_ ^ byte) * 1099511628211ull;
    }
  }

  std::uint64_t hash_ = 1469598103934665603ull;
};

// Pins the planner's outputs on the Fig. 3 points, heterogeneous
// reservations, a C=D split, a delta solve and a clustered fallback: a
// refactor of the pipeline must reproduce every one byte for byte.
TEST(Planner, SerialOutputsGolden) {
  PlanHash hash;
  const auto solve = [&](int cpus, int cores_per_socket,
                         const std::vector<VcpuRequest>& requests) {
    PlannerConfig config;
    config.num_cpus = cpus;
    config.cores_per_socket = cores_per_socket;
    const PlanResult plan = Planner(config).Solve(PlanRequest::Full(requests));
    hash.Add(plan);
    return plan.method;
  };
  solve(12, 6, UniformRequests(48, 0.25, 20 * kMillisecond));
  solve(44, 22, UniformRequests(176, 0.25, 20 * kMillisecond));
  solve(44, 0, UniformRequests(176, 0.25, kMillisecond));

  std::vector<VcpuRequest> mixed;
  const double utilizations[] = {0.1, 0.25, 0.4, 0.55};
  const TimeNs goals[] = {5 * kMillisecond, 20 * kMillisecond, 60 * kMillisecond};
  for (int i = 0; i < 60; ++i) {
    mixed.push_back(VcpuRequest{i, utilizations[i % 4], goals[i % 3]});
  }
  solve(44, 0, mixed);

  EXPECT_EQ(solve(4, 0, UniformRequests(6, 0.6, 40 * kMillisecond)),
            PlanMethod::kSemiPartitioned);

  PlannerConfig config;
  config.num_cpus = 12;
  const Planner planner(config);
  const PlanResult first =
      planner.Solve(PlanRequest::Full(UniformRequests(40, 0.25, 20 * kMillisecond)));
  hash.Add(first);
  const PlanResult delta = planner.Solve(PlanRequest::Delta(
      first, {{100, 0.25, 20 * kMillisecond}, {101, 0.5, 10 * kMillisecond}}, {3, 17}));
  hash.Add(delta);

  std::vector<VcpuRequest> clustered = UniformRequests(4, 0.9, 2 * kMillisecond);
  clustered.push_back(VcpuRequest{4, 0.35, 3 * kMillisecond});
  EXPECT_EQ(solve(4, 0, clustered), PlanMethod::kClustered);

  EXPECT_EQ(hash.value(), 0xdd5319685de4b94cull) << std::hex << hash.value();
}

class PlannerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlannerPropertyTest, RandomWorkloadsSatisfyGuarantees) {
  Rng rng(GetParam());
  const int cores = static_cast<int>(rng.UniformInt(2, 12));
  PlannerConfig config;
  config.num_cpus = cores;
  const Planner planner(config);

  std::vector<VcpuRequest> requests;
  double total = 0;
  int id = 0;
  while (true) {
    const double u = rng.UniformDouble(0.02, 0.8);
    if (total + u > 0.95 * cores || id > 60) {
      break;
    }
    total += u;
    VcpuRequest request;
    request.vcpu = id++;
    request.utilization = u;
    request.latency_goal = rng.UniformInt(2 * kMillisecond, 150 * kMillisecond);
    requests.push_back(request);
  }
  const PlanResult plan = planner.Solve(PlanRequest::Full(requests));
  ASSERT_TRUE(plan.success) << plan.error;
  ASSERT_EQ(plan.table.Validate(), "");

  std::map<VcpuId, const VcpuRequest*> by_id;
  for (const VcpuRequest& request : requests) {
    by_id[request.vcpu] = &request;
  }
  for (const VcpuPlan& vcpu : plan.vcpus) {
    const VcpuRequest& request = *by_id.at(vcpu.vcpu);
    // Minimum-share guarantee, with coalescing donations exactly accounted.
    const double donated =
        static_cast<double>(vcpu.donated_ns) / static_cast<double>(plan.table.length());
    EXPECT_GE(GrantedUtilization(plan.table, vcpu.vcpu),
              request.utilization - donated - 1e-6)
        << "vcpu " << vcpu.vcpu;
    // Latency guarantee whenever the goal was achievable.
    if (vcpu.latency_goal_met) {
      EXPECT_LE(MaxBlackout(plan.table, vcpu.vcpu), request.latency_goal)
          << "vcpu " << vcpu.vcpu;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, PlannerPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace tableau
