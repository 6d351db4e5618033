// Tests for PlanRequest::Delta solves (per-core incremental replanning, the
// Sec. 7.1 optimization).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <set>

#include "src/common/rng.h"
#include "src/core/planner.h"
#include "tests/table_oracles.h"

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
  return static_cast<double>(TotalService(table, vcpu)) /
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
  EXPECT_EQ(TotalService(incremental.table, 5), 0);
  // No plan entry for the departed vCPU.
  EXPECT_TRUE(std::none_of(incremental.vcpus.begin(), incremental.vcpus.end(),
                           [](const VcpuPlan& p) { return p.vcpu == 5; }));
}

TEST(IncrementalPlan, DeltaLeavesThePreviousPlanIntact) {
  // A delta shares the previous plan's per-core task lists and copies a list
  // before its first edit, so the previous plan reads as before, and the
  // untouched cores' lists are the same objects in both plans.
  PlannerConfig config;
  config.num_cpus = 8;
  const Planner planner(config);
  const PlanResult base =
      planner.Solve(PlanRequest::Full(UniformRequests(24, 0.25, 20 * kMillisecond)));
  ASSERT_TRUE(base.success);
  const std::vector<std::vector<PeriodicTask>> lists(base.core_tasks.begin(),
                                                     base.core_tasks.end());
  const std::vector<VcpuIndexEntry> index = base.vcpu_index;
  const PlanResult next = planner.Solve(PlanRequest::Delta(
      base, {{5, 0.3, 20 * kMillisecond}, {30, 0.1, 20 * kMillisecond}}, {5, 9}));
  ASSERT_TRUE(next.success) << next.error;
  ASSERT_LT(next.dirty_cores.size(), 8u);
  for (std::size_t core = 0; core < lists.size(); ++core) {
    EXPECT_EQ(base.core_tasks[core].size(), lists[core].size()) << "core " << core;
    for (std::size_t i = 0; i < lists[core].size(); ++i) {
      EXPECT_EQ(base.core_tasks[core][i].vcpu, lists[core][i].vcpu) << "core " << core;
      EXPECT_EQ(base.core_tasks[core][i].cost, lists[core][i].cost) << "core " << core;
    }
    const bool dirty = std::find(next.dirty_cores.begin(), next.dirty_cores.end(),
                                 static_cast<int>(core)) != next.dirty_cores.end();
    EXPECT_EQ(&next.core_tasks[core] == &base.core_tasks[core], !dirty) << "core " << core;
  }
  ASSERT_EQ(base.vcpu_index.size(), index.size());
  for (std::size_t i = 0; i < index.size(); ++i) {
    EXPECT_EQ(base.vcpu_index[i].vcpu, index[i].vcpu);
    EXPECT_EQ(base.vcpu_index[i].core, index[i].core);
  }
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
        EXPECT_LE(MaxBlackout(plan.table, vcpu.vcpu), vcpu.latency_goal)
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

TEST(IncrementalPlan, DeltaMatchesFullOnRejectedAndConstrainedInputs) {
  // Each delta, applied to an 8-core two-socket host, must get exactly the
  // outcome a full solve of the merged request set gets.
  PlannerConfig config;
  config.num_cpus = 8;
  config.cores_per_socket = 4;
  const Planner planner(config);
  const PlanResult base =
      planner.Solve(PlanRequest::Full(UniformRequests(8, 0.25, 20 * kMillisecond)));
  ASSERT_TRUE(base.success) << base.error;

  const TimeNs goal = 20 * kMillisecond;
  VcpuRequest socket_one{8, 0.25, goal};
  socket_one.socket_affinity = 1;
  VcpuRequest socket_two{8, 0.25, goal};
  socket_two.socket_affinity = 2;  // One past the last socket.
  VcpuRequest socket_seven{8, 0.25, goal};
  socket_seven.socket_affinity = 7;
  const struct {
    const char* name;
    std::vector<VcpuRequest> added;
    std::vector<VcpuId> departed;
    PlanFailure failure;
  } cases[] = {
      {"tiny budget", {{8, 0.0004, 100 * kMillisecond}}, {}, PlanFailure::kAdmission},
      {"live id", {{3, 0.25, goal}}, {}, PlanFailure::kInvalidRequest},
      {"id added twice", {{8, 0.25, goal}, {8, 0.3, goal}}, {}, PlanFailure::kInvalidRequest},
      {"id added twice on departure", {{3, 0.25, goal}, {3, 0.3, goal}}, {3},
       PlanFailure::kInvalidRequest},
      {"socket 1", {socket_one}, {}, PlanFailure::kNone},
      {"socket 2", {socket_two}, {}, PlanFailure::kInvalidRequest},
      {"socket 7", {socket_seven}, {}, PlanFailure::kInvalidRequest},
      {"zero utilization", {{8, 0.0, goal}}, {}, PlanFailure::kInvalidRequest},
      {"NaN utilization",
       {{8, std::numeric_limits<double>::quiet_NaN(), goal}},
       {},
       PlanFailure::kInvalidRequest},
      {"utilization above 1", {{8, 1.5, goal}}, {}, PlanFailure::kInvalidRequest},
      {"zero latency goal", {{8, 0.25, 0}}, {}, PlanFailure::kInvalidRequest},
      {"resize", {{3, 0.4, goal}}, {3}, PlanFailure::kNone},
  };
  for (const auto& c : cases) {
    // The merged set in PlanDelta's order: the survivors, then the added.
    std::vector<VcpuRequest> merged;
    for (const VcpuRequest& r : base.requests) {
      if (std::find(c.departed.begin(), c.departed.end(), r.vcpu) == c.departed.end()) {
        merged.push_back(r);
      }
    }
    merged.insert(merged.end(), c.added.begin(), c.added.end());
    const PlanResult full = planner.Solve(PlanRequest::Full(merged));
    const PlanResult delta = planner.Solve(PlanRequest::Delta(base, c.added, c.departed));
    EXPECT_EQ(full.failure, c.failure) << c.name << ": " << full.error;
    EXPECT_EQ(delta.failure, full.failure) << c.name << ": " << delta.error;
    EXPECT_EQ(delta.error, full.error) << c.name;
    EXPECT_EQ(delta.success, full.success) << c.name;
    if (delta.success) {
      EXPECT_EQ(delta.requests.size(), merged.size()) << c.name;
      EXPECT_LT(delta.dirty_cores.size(), 8u) << c.name << ": not a delta solve";
    }
  }

  const PlanResult pinned = planner.Solve(PlanRequest::Delta(base, {socket_one}));
  ASSERT_TRUE(pinned.success) << pinned.error;
  EXPECT_EQ(pinned.dirty_cores.size(), 1u);  // Still an incremental solve.
  const std::vector<int> cpus = CpusOf(pinned.table, 8);
  ASSERT_EQ(cpus.size(), 1u);
  EXPECT_EQ(cpus[0] / config.cores_per_socket, 1);

  // A resize re-enters on the delta path, on the core it left (the
  // emptiest one once it is gone), with its new size.
  const PlanResult resized = planner.Solve(PlanRequest::Delta(base, {{3, 0.4, goal}}, {3}));
  ASSERT_TRUE(resized.success) << resized.error;
  EXPECT_EQ(resized.dirty_cores, CpusOf(base.table, 3));
  EXPECT_EQ(resized.vcpus.back().vcpu, 3);
  EXPECT_DOUBLE_EQ(resized.vcpus.back().requested_utilization, 0.4);
}

TEST(IncrementalPlan, EveryDeltaRecordsOnePlanTotalSample) {
  // planner.plan_total_ns times the whole delta solve, request checks
  // included, and a full-solve fallback adds no second sample.
  // planner.incremental_plans counts the deltas whose added requests pass
  // the check, which rejects exactly what PlanFull's check of the merged
  // set would.
  obs::MetricsRegistry registry;
  PlannerConfig config;
  config.num_cpus = 4;
  config.cores_per_socket = 2;
  config.metrics = &registry;
  const Planner planner(config);
  const PlanResult base =
      planner.Solve(PlanRequest::Full(UniformRequests(8, 0.25, 20 * kMillisecond)));
  ASSERT_TRUE(base.success);
  const auto samples = [&] {
    return registry.GetHistogram("planner.plan_total_ns")->ToValue().count;
  };
  const auto full_solves = [&] { return registry.GetCounter("planner.plans")->value(); };
  const auto deltas = [&] { return registry.GetCounter("planner.incremental_plans")->value(); };
  VcpuRequest past_last_socket{8, 0.25, 20 * kMillisecond};
  past_last_socket.socket_affinity = 2;
  const struct {
    const char* name;
    std::vector<VcpuRequest> added;
    std::int64_t full_solves;  // PlanFull runs: the fallbacks.
    std::int64_t deltas;       // Solves past the request check.
  } cases[] = {
      {"delta", UniformRequests(1, 0.25, 20 * kMillisecond, 8), 0, 1},
      {"live id", UniformRequests(1, 0.25, 20 * kMillisecond, 3), 1, 0},
      {"socket past the last", {past_last_socket}, 1, 0},
      {"fits no single core", UniformRequests(1, 0.6, 20 * kMillisecond, 8), 1, 1},
  };
  for (const auto& c : cases) {
    const std::uint64_t samples_before = samples();
    const std::int64_t full_before = full_solves();
    const std::int64_t deltas_before = deltas();
    planner.Solve(PlanRequest::Delta(base, c.added));
    EXPECT_EQ(samples() - samples_before, 1u) << c.name;
    EXPECT_EQ(full_solves() - full_before, c.full_solves) << c.name;
    EXPECT_EQ(deltas() - deltas_before, c.deltas) << c.name;
  }
}

// FNV-1a over everything a solve returns that a caller can observe: the
// outcome, the method, the dirty cores, the serialized table and every
// VcpuPlan field.
class OutputHash {
 public:
  void Add(const PlanResult& plan) {
    Value(plan.success);
    Value(plan.failure);
    if (!plan.success) {
      return;
    }
    Value(plan.method);
    for (const int core : plan.dirty_cores) {
      Value(core);
    }
    for (const std::uint8_t byte : plan.table.Serialize()) {
      Value(byte);
    }
    for (const VcpuPlan& vcpu : plan.vcpus) {
      Value(vcpu.vcpu);
      Value(vcpu.requested_utilization);
      Value(vcpu.latency_goal);
      Value(vcpu.cost);
      Value(vcpu.period);
      Value(vcpu.effective_utilization);
      Value(vcpu.blackout_bound);
      Value(vcpu.latency_goal_met);
      Value(vcpu.dedicated);
      Value(vcpu.split);
      Value(vcpu.donated_ns);
    }
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

struct StreamSummary {
  std::uint64_t hash = 0;
  int solves = 0;
  int delta_steps = 0;  // Steps solved without a full fallback.
};

// A seeded arrive / depart / resize stream, each step solved as a delta of
// the last successful plan. Resizes come in batches of up to four vCPUs that
// depart and re-enter with a new utilization, the way Host::ResizeVms sends
// them. Utilizations stay in [0.08, 0.55) and goals in [4, 60] ms, so every
// budget clears the coalesce threshold; arrivals turn into departures once
// `max_committed` cores are reserved, so full fallbacks stay partitioned.
StreamSummary RunDeltaStream(const PlannerConfig& config, int initial_vms, int steps,
                             double max_committed, std::uint64_t seed,
                             const std::function<void(const PlanResult&)>& check = nullptr) {
  const Planner planner(config);
  Rng rng(seed);
  VcpuId next_id = 0;
  const auto fresh_request = [&]() {
    return VcpuRequest{next_id++, rng.UniformDouble(0.08, 0.45),
                       rng.UniformInt(4, 60) * kMillisecond};
  };
  std::vector<VcpuRequest> initial;
  for (int i = 0; i < initial_vms; ++i) {
    initial.push_back(fresh_request());
  }
  StreamSummary summary;
  OutputHash hash;
  PlanResult plan = planner.Solve(PlanRequest::Full(initial));
  hash.Add(plan);
  ++summary.solves;
  EXPECT_TRUE(plan.success) << plan.error;
  for (int step = 0; step < steps && plan.success; ++step) {
    std::vector<VcpuRequest> added;
    std::vector<VcpuId> departed;
    std::vector<VcpuRequest> live = plan.requests;
    double committed = 0;
    for (const VcpuRequest& request : live) {
      committed += request.utilization;
    }
    std::int64_t op = rng.UniformInt(0, 9);
    if (op <= 3 && committed > max_committed) {
      op = 4;  // Depart instead of arriving on a nearly full host.
    }
    if (op <= 3) {
      const std::int64_t count = rng.UniformInt(1, 2);
      for (std::int64_t i = 0; i < count; ++i) {
        added.push_back(fresh_request());
      }
    } else if (op <= 5 && live.size() > 2) {
      const std::int64_t count = rng.UniformInt(1, 2);
      for (std::int64_t i = 0; i < count; ++i) {
        const auto victim = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
        departed.push_back(live[victim].vcpu);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    } else {
      const std::int64_t count =
          std::min<std::int64_t>(rng.UniformInt(1, 4), static_cast<std::int64_t>(live.size()));
      for (std::int64_t i = 0; i < count; ++i) {
        const auto victim = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
        VcpuRequest resized = live[victim];
        resized.utilization = rng.UniformDouble(0.08, 0.55);
        departed.push_back(resized.vcpu);
        added.push_back(resized);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }
    PlanResult next = planner.Solve(PlanRequest::Delta(plan, added, departed));
    hash.Add(next);
    ++summary.solves;
    if (!next.success) {
      continue;  // The stream goes on from the last successful plan.
    }
    if (check) {
      check(next);
    }
    if (static_cast<int>(next.dirty_cores.size()) < config.num_cpus) {
      ++summary.delta_steps;
    }
    plan = std::move(next);
  }
  summary.hash = hash.value();
  return summary;
}

// The vCPU index of a plan agrees with its plans, its requests, its per-core
// task lists and cached demands, and its table's local-vCPU lists.
void ExpectIndexAgrees(const PlanResult& plan, const std::string& where) {
  ASSERT_EQ(plan.vcpu_index.size(), plan.vcpus.size()) << where;
  std::vector<bool> seen(plan.vcpus.size(), false);
  for (std::size_t i = 0; i < plan.vcpu_index.size(); ++i) {
    const VcpuIndexEntry& entry = plan.vcpu_index[i];
    if (i > 0) {
      ASSERT_LT(plan.vcpu_index[i - 1].vcpu, entry.vcpu) << where;
    }
    const auto position = static_cast<std::size_t>(entry.position);
    ASSERT_LT(position, plan.vcpus.size()) << where;
    ASSERT_FALSE(seen[position]) << where;
    seen[position] = true;
    ASSERT_EQ(plan.vcpus[position].vcpu, entry.vcpu) << where;
    ASSERT_EQ(plan.requests[position].vcpu, entry.vcpu) << where;
  }
  std::size_t placed = 0;
  for (std::size_t core = 0; core < plan.core_tasks.size(); ++core) {
    const std::vector<PeriodicTask>& tasks = plan.core_tasks[core];
    EXPECT_EQ(plan.core_tasks.demand(core), TotalDemand(tasks, kHyperperiodNs)) << where;
    std::vector<VcpuId> on_core;
    for (const PeriodicTask& task : tasks) {
      const auto entry = std::lower_bound(
          plan.vcpu_index.begin(), plan.vcpu_index.end(), task.vcpu,
          [](const VcpuIndexEntry& e, VcpuId id) { return e.vcpu < id; });
      ASSERT_NE(entry, plan.vcpu_index.end()) << where;
      ASSERT_EQ(entry->vcpu, task.vcpu) << where;
      if (plan.method == PlanMethod::kPartitioned) {
        EXPECT_EQ(entry->core, static_cast<int>(core)) << where << " vcpu " << task.vcpu;
      }
      on_core.push_back(task.vcpu);
    }
    std::sort(on_core.begin(), on_core.end());
    if (plan.method == PlanMethod::kPartitioned) {
      EXPECT_EQ(plan.table.cpu(static_cast<int>(core)).local_vcpus, on_core)
          << where << " core " << core;
    }
    placed += tasks.size();
  }
  for (const VcpuIndexEntry& entry : plan.vcpu_index) {
    if (plan.method != PlanMethod::kPartitioned ||
        plan.vcpus[static_cast<std::size_t>(entry.position)].dedicated) {
      EXPECT_EQ(entry.core, -1) << where << " vcpu " << entry.vcpu;
    }
  }
  if (plan.method == PlanMethod::kPartitioned) {
    EXPECT_EQ(placed, plan.vcpus.size()) << where;
  }
}

TEST(IncrementalPlan, IndexAgreesWithTasksAndTablesThroughStreams) {
  const auto run = [](const PlannerConfig& config, int initial_vms, int steps,
                      double max_committed, std::uint64_t seed) {
    int step = 0;
    const StreamSummary summary =
        RunDeltaStream(config, initial_vms, steps, max_committed, seed,
                       [&](const PlanResult& plan) {
                         ExpectIndexAgrees(plan, "step " + std::to_string(step++));
                       });
    EXPECT_GT(summary.delta_steps, 30);
    // Some steps fell back to a full solve (each solve after the first one
    // is either a delta or a fallback; none failed).
    EXPECT_EQ(step, summary.solves - 1);
    EXPECT_GT(summary.solves - 1 - summary.delta_steps, 0);
  };
  PlannerConfig wide;
  wide.num_cpus = 44;
  run(wide, 120, 60, 38.0, 2018);
  PlannerConfig numa;
  numa.num_cpus = 8;
  numa.cores_per_socket = 4;
  run(numa, 22, 80, 6.5, 7);
}

// Pins the delta path's outputs: a refactor of the planner must reproduce
// every step of these streams byte for byte.
TEST(IncrementalPlan, DeltaStreamGolden) {
  PlannerConfig wide;
  wide.num_cpus = 44;
  const StreamSummary wide_run = RunDeltaStream(wide, 120, 60, 38.0, 2018);
  EXPECT_EQ(wide_run.solves, 61);
  EXPECT_GT(wide_run.delta_steps, 30);
  EXPECT_EQ(wide_run.hash, 0xa37d8d13020a59bfull) << std::hex << wide_run.hash;

  PlannerConfig numa;
  numa.num_cpus = 8;
  numa.cores_per_socket = 4;
  const StreamSummary numa_run = RunDeltaStream(numa, 22, 80, 6.5, 7);
  EXPECT_EQ(numa_run.solves, 81);
  EXPECT_GT(numa_run.delta_steps, 30);
  EXPECT_EQ(numa_run.hash, 0x958974df0faf45ecull) << std::hex << numa_run.hash;

  PlannerConfig peephole = numa;
  peephole.peephole_pass = true;
  const StreamSummary peephole_run = RunDeltaStream(peephole, 22, 80, 6.5, 7);
  EXPECT_EQ(peephole_run.solves, 81);
  EXPECT_EQ(peephole_run.hash, 0x9211457810aecdbeull) << std::hex << peephole_run.hash;
}

}  // namespace
}  // namespace tableau
