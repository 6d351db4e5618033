// Tests for the verification subsystem itself (src/check): the TableVerifier
// against hand-built tables with planted contract violations, the scenario
// spec round-trip, planted scheduler mutants being caught by the oracles,
// and the shrinker reducing a mutant reproducer to a handful of vCPUs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/check/mutants.h"
#include "src/check/oracles.h"
#include "src/check/scenario_fuzz.h"
#include "src/check/table_verifier.h"
#include "src/core/planner.h"
#include "src/table/scheduling_table.h"

namespace tableau::check {
namespace {

// A clean one-core table: vCPU 0 gets [k*10ms, k*10ms + 2ms) in each of the
// ten 10 ms windows of a 100 ms table.
SchedulingTable TenWindowTable() {
  std::vector<std::vector<Allocation>> per_cpu(1);
  for (int k = 0; k < 10; ++k) {
    per_cpu[0].push_back(
        Allocation{0, k * 10 * kMillisecond, k * 10 * kMillisecond + 2 * kMillisecond});
  }
  return SchedulingTable::Build(100 * kMillisecond, std::move(per_cpu));
}

VcpuContract TenWindowContract() {
  VcpuContract contract;
  contract.vcpu = 0;
  contract.cost = 2 * kMillisecond;
  contract.period = 10 * kMillisecond;
  return contract;
}

VerifyOptions NoHyperperiodCheck() {
  VerifyOptions options;
  options.expected_length = 0;
  return options;
}

bool AnyContains(const std::vector<std::string>& violations, const std::string& needle) {
  for (const std::string& violation : violations) {
    if (violation.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(TableVerifier, CleanTablePasses) {
  const SchedulingTable table = TenWindowTable();
  const std::vector<std::string> violations =
      VerifyTable(table, {TenWindowContract()}, NoHyperperiodCheck());
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(TableVerifier, MissingWindowSupplyIsCaught) {
  // Drop the allocation in window 4 entirely.
  std::vector<std::vector<Allocation>> per_cpu(1);
  for (int k = 0; k < 10; ++k) {
    if (k == 4) continue;
    per_cpu[0].push_back(
        Allocation{0, k * 10 * kMillisecond, k * 10 * kMillisecond + 2 * kMillisecond});
  }
  const SchedulingTable table =
      SchedulingTable::Build(100 * kMillisecond, std::move(per_cpu));
  const std::vector<std::string> violations =
      VerifyTable(table, {TenWindowContract()}, NoHyperperiodCheck());
  EXPECT_TRUE(AnyContains(violations, "window 4"));
  EXPECT_TRUE(AnyContains(violations, "shortfall"));
}

TEST(TableVerifier, ShortWindowSupplyIsCaught) {
  // Window 7 only gets half its budget.
  std::vector<std::vector<Allocation>> per_cpu(1);
  for (int k = 0; k < 10; ++k) {
    const TimeNs budget = k == 7 ? kMillisecond : 2 * kMillisecond;
    per_cpu[0].push_back(
        Allocation{0, k * 10 * kMillisecond, k * 10 * kMillisecond + budget});
  }
  const SchedulingTable table =
      SchedulingTable::Build(100 * kMillisecond, std::move(per_cpu));
  const std::vector<std::string> violations =
      VerifyTable(table, {TenWindowContract()}, NoHyperperiodCheck());
  EXPECT_TRUE(AnyContains(violations, "window 7"));
}

TEST(TableVerifier, BlackoutBoundIsCyclic) {
  // All supply bunched at the table start: windows 1..9 starve, and the
  // cyclic gap from 2 ms around to 0 violates 2(T - C) = 16 ms.
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0].push_back(Allocation{0, 0, 20 * kMillisecond});
  const SchedulingTable table =
      SchedulingTable::Build(100 * kMillisecond, std::move(per_cpu));
  const std::vector<std::string> violations =
      VerifyTable(table, {TenWindowContract()}, NoHyperperiodCheck());
  EXPECT_TRUE(AnyContains(violations, "blackout"));
}

TEST(TableVerifier, DedicatedVcpuMustOwnFullCore) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0].push_back(Allocation{3, 0, 90 * kMillisecond});
  const SchedulingTable table =
      SchedulingTable::Build(100 * kMillisecond, std::move(per_cpu));
  VcpuContract contract;
  contract.vcpu = 3;
  contract.dedicated = true;
  const std::vector<std::string> violations =
      VerifyTable(table, {contract}, NoHyperperiodCheck());
  EXPECT_TRUE(AnyContains(violations, "dedicated"));
}

TEST(TableVerifier, CrossCoreConcurrencyIsCaught) {
  // vCPU 0 allocated on both cores at overlapping times.
  std::vector<std::vector<Allocation>> per_cpu(2);
  per_cpu[0].push_back(Allocation{0, 0, 2 * kMillisecond});
  per_cpu[1].push_back(Allocation{0, kMillisecond, 3 * kMillisecond});
  const SchedulingTable table =
      SchedulingTable::Build(10 * kMillisecond, std::move(per_cpu));
  VcpuContract contract;
  contract.vcpu = 0;
  contract.cost = 3 * kMillisecond;
  contract.period = 10 * kMillisecond;
  contract.split = true;
  const std::vector<std::string> violations =
      VerifyTable(table, {contract}, NoHyperperiodCheck());
  EXPECT_TRUE(AnyContains(violations, "concurrently"));
}

TEST(TableVerifier, SplitFlagMustMatchTable) {
  const SchedulingTable table = TenWindowTable();
  VcpuContract contract = TenWindowContract();
  contract.split = true;  // Claims a split, table has one core.
  const std::vector<std::string> violations =
      VerifyTable(table, {contract}, NoHyperperiodCheck());
  EXPECT_TRUE(AnyContains(violations, "split"));
}

TEST(TableVerifier, SubThresholdSurvivorIsCaught) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0].push_back(Allocation{0, 0, 10 * kMicrosecond});  // < 30 us.
  const SchedulingTable table =
      SchedulingTable::Build(10 * kMillisecond, std::move(per_cpu));
  const std::vector<std::string> violations = VerifyTable(table, {}, NoHyperperiodCheck());
  EXPECT_TRUE(AnyContains(violations, "sub-threshold"));
}

TEST(TableVerifier, EveryPlannedTableVerifies) {
  // Planner-produced tables across the pipeline stages must satisfy their
  // own claimed contracts.
  for (int vms_per_core : {2, 4, 5}) {
    PlannerConfig config;
    config.num_cpus = 4;
    const Planner planner(config);
    std::vector<VcpuRequest> requests;
    for (int i = 0; i < config.num_cpus * vms_per_core; ++i) {
      requests.push_back(
          VcpuRequest{i, 1.0 / vms_per_core - 0.01, 20 * kMillisecond});
    }
    const PlanResult plan = planner.Solve(PlanRequest::Full(std::move(requests)));
    ASSERT_TRUE(plan.success) << plan.error;
    const std::vector<std::string> violations = VerifyPlan(plan, config);
    EXPECT_TRUE(violations.empty())
        << vms_per_core << " VMs/core: " << violations.front();
  }
}

TEST(TableVerifier, TinyBudgetReservationIsRejectedAtAdmission) {
  // Regression (found by this verifier): U = 0.05 at a 300 us latency goal
  // maps to C ~ 8 us < the 30 us coalesce threshold, so post-processing used
  // to donate the entire reservation away — a "successful" plan whose vCPU
  // starved for the whole hyperperiod. The planner must reject at admission
  // (degradation-eligible) instead.
  PlannerConfig config;
  config.num_cpus = 1;
  const Planner planner(config);
  const PlanResult plan = planner.Solve(
      PlanRequest::Full({VcpuRequest{0, 0.05, 300 * kMicrosecond}}));
  EXPECT_FALSE(plan.success);
  EXPECT_EQ(plan.failure, PlanFailure::kAdmission);

  // With latency degradation enabled the same request plans at a relaxed
  // goal, and the resulting table honors the contract.
  config.max_latency_degradations = 8;
  const Planner degrading(config);
  const PlanResult degraded = degrading.Solve(
      PlanRequest::Full({VcpuRequest{0, 0.05, 300 * kMicrosecond}}));
  ASSERT_TRUE(degraded.success) << degraded.error;
  EXPECT_GT(degraded.degradation_steps, 0);
  const std::vector<std::string> violations = VerifyPlan(degraded, config);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(ScenarioSpec, FormatParseRoundTrip) {
  const ScenarioSpec spec = GenerateSpec(7);
  const std::string text = FormatSpec(spec);
  const auto parsed = ParseSpec(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(FormatSpec(*parsed), text);
}

TEST(ScenarioSpec, GeneratedSpecsAreFeasible) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    EXPECT_TRUE(FeasibleSpec(GenerateSpec(seed))) << "seed " << seed;
  }
}

TEST(ScenarioSpec, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseSpec("not a repro").has_value());
  EXPECT_FALSE(ParseSpec("tableau-repro v1\nbogus_key=1\n").has_value());
  EXPECT_FALSE(ParseSpec("tableau-repro v1\nseed=1\n").has_value());  // No VMs.
  // Every value must parse in full; the vm= line must hold exactly its fields.
  const std::string header = "tableau-repro v1\n";
  const std::string vm =
      "vm=vcpus:1 util:0.25 latency_ns:20000000 workload:hog gang:0";
  ASSERT_TRUE(ParseSpec(header + vm + "\n").has_value());
  for (const std::string& bad : std::vector<std::string>{
           "seed=abc", "guest_cpus=2x", "capped=yes", vm + " extra:5"}) {
    EXPECT_FALSE(ParseSpec(header + bad + "\n" + vm + "\n").has_value()) << bad;
  }
}

// A Tableau scenario with a planted mutant: the oracles must notice, the
// clean run must not, and the shrinker must cut the reproducer down.
ScenarioSpec MutantSpec(MutantKind mutant) {
  ScenarioSpec spec = GenerateSpec(1);
  spec.scheduler = SchedKind::kTableau;
  spec.capped = true;
  spec.replan_at = 0;
  spec.planner_failure = 0.0;
  spec.mutant = mutant;
  spec.mutant_stride = 7;
  return spec;
}

TEST(Mutants, WrongVcpuIsCaughtByTableauOracle) {
  const CheckOutcome outcome = RunCheckedScenario(MutantSpec(MutantKind::kWrongVcpu));
  ASSERT_FALSE(outcome.violations.empty());
  EXPECT_TRUE(AnyContains(outcome.violations, "reserves this instant"));
}

TEST(Mutants, OverrunSliceIsCaughtBySlotEndBound) {
  const CheckOutcome outcome = RunCheckedScenario(MutantSpec(MutantKind::kOverrunSlice));
  ASSERT_FALSE(outcome.violations.empty());
  EXPECT_TRUE(AnyContains(outcome.violations, "past its slot end"));
}

TEST(Mutants, CleanRunHasNoViolations) {
  const CheckOutcome outcome = RunCheckedScenario(MutantSpec(MutantKind::kNone));
  EXPECT_TRUE(outcome.violations.empty())
      << outcome.violations.front();
  EXPECT_GT(outcome.records, 0u);
}

TEST(Shrink, MutantReproducerShrinksToFewVcpus) {
  const ScenarioSpec spec = MutantSpec(MutantKind::kWrongVcpu);
  const CheckOutcome outcome = RunCheckedScenario(spec);
  ASSERT_FALSE(outcome.violations.empty());
  const std::string category = CategoryOf(outcome.violations);
  const ShrinkResult<ScenarioSpec> shrunk = Shrink(spec, category);
  // The shrunk spec still reproduces the same violation category...
  const CheckOutcome replay = RunCheckedScenario(shrunk.spec);
  EXPECT_EQ(CategoryOf(replay.violations), category);
  // ...and is small (acceptance bound: at most 4 vCPUs).
  EXPECT_LE(shrunk.spec.TotalVcpus(), 4);
  EXPECT_GT(shrunk.runs, 0);
}

TEST(Oracles, WindowedServiceCheckFlagsOverBudgetWindow) {
  WindowedServiceCheck check(10 * kMillisecond, 2 * kMillisecond);
  EXPECT_EQ(check.Add(0, kMillisecond), -1);
  EXPECT_EQ(check.Add(kMillisecond, 2 * kMillisecond), -1);
  // Third millisecond in window 0 exceeds the 2 ms bound.
  EXPECT_EQ(check.Add(2 * kMillisecond, 3 * kMillisecond), 0);
  // Spanning service lands in each window separately.
  WindowedServiceCheck spanning(10 * kMillisecond, 2 * kMillisecond);
  EXPECT_EQ(spanning.Add(9 * kMillisecond, 11 * kMillisecond), -1);
  EXPECT_EQ(spanning.WindowTotal(0), kMillisecond);
  EXPECT_EQ(spanning.WindowTotal(1), kMillisecond);
}

TEST(PlannerAuditHook, ObservesEverySuccessfulSolve) {
  int calls = 0;
  SetPlanAuditHook([&calls](const PlanResult& plan, const PlannerConfig&) {
    ASSERT_TRUE(plan.success);
    ++calls;
  });
  PlannerConfig config;
  config.num_cpus = 2;
  const Planner planner(config);
  ASSERT_TRUE(
      planner.Solve(PlanRequest::Full({VcpuRequest{0, 0.25, 20 * kMillisecond}}))
          .success);
  // Failed solves are not audited.
  ASSERT_FALSE(
      planner.Solve(PlanRequest::Full({VcpuRequest{0, 0.05, 300 * kMicrosecond}}))
          .success);
  SetPlanAuditHook(nullptr);
  ASSERT_TRUE(
      planner.Solve(PlanRequest::Full({VcpuRequest{0, 0.25, 20 * kMillisecond}}))
          .success);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace tableau::check
