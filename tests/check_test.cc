// Tests for the verification subsystem itself (src/check): the TableVerifier
// against hand-built tables with planted contract violations, the scenario
// spec round-trip, planted scheduler mutants being caught by the oracles,
// and the shrinker reducing a mutant reproducer to a handful of vCPUs.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/check/mutants.h"
#include "src/check/oracles.h"
#include "src/check/scenario_fuzz.h"
#include "src/check/table_verifier.h"
#include "src/common/rng.h"
#include "src/core/planner.h"
#include "src/table/scheduling_table.h"
#include "tests/table_oracles.h"

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

// The verifier's checks after the structure check as they were before they
// shared one sorted piece list: linear lookups, a per-vCPU map for
// cross-core exclusion, and per-contract rescans of the whole table. The
// only change is that each vCPU's intervals are stably sorted, so pieces
// with equal starts stay in pCPU order. VerifyTable must match it string
// for string on structurally clean tables.
namespace reference {

std::string Describe(const char* what, VcpuId vcpu, long long got, long long bound) {
  std::ostringstream out;
  out << what << " for vcpu " << vcpu << ": " << got << " vs bound " << bound;
  return out.str();
}

void CheckSliceAgreement(const SchedulingTable& table,
                         std::vector<std::string>* violations) {
  const TimeNs length = table.length();
  for (int c = 0; c < table.num_cpus(); ++c) {
    std::vector<TimeNs> offsets = {0, length - 1};
    for (const Allocation& alloc : table.cpu(c).allocations) {
      offsets.push_back(alloc.start);
      offsets.push_back(alloc.start + (alloc.end - alloc.start) / 2);
      offsets.push_back(alloc.end - 1);
      if (alloc.end < length) {
        offsets.push_back(alloc.end);
      }
      if (alloc.start > 0) {
        offsets.push_back(alloc.start - 1);
      }
    }
    for (const TimeNs offset : offsets) {
      const LookupResult fast = table.Lookup(c, offset);
      const LookupResult slow = LookupLinear(table, c, offset);
      if (fast.vcpu != slow.vcpu || fast.interval_end != slow.interval_end) {
        std::ostringstream out;
        out << "cpu " << c << " offset " << offset << ": slice lookup (vcpu "
            << fast.vcpu << ", end " << fast.interval_end
            << ") disagrees with linear lookup (vcpu " << slow.vcpu << ", end "
            << slow.interval_end << ")";
        violations->push_back(out.str());
      }
    }
  }
}

std::vector<Allocation> IntervalsOf(const SchedulingTable& table, VcpuId vcpu) {
  std::vector<Allocation> intervals;
  for (int c = 0; c < table.num_cpus(); ++c) {
    for (const Allocation& alloc : table.cpu(c).allocations) {
      if (alloc.vcpu == vcpu) {
        intervals.push_back(alloc);
      }
    }
  }
  std::stable_sort(intervals.begin(), intervals.end(),
                   [](const Allocation& a, const Allocation& b) { return a.start < b.start; });
  return intervals;
}

void CheckCrossCoreExclusion(const SchedulingTable& table,
                             std::vector<std::string>* violations) {
  struct Tagged {
    TimeNs start;
    TimeNs end;
    int cpu;
  };
  std::map<VcpuId, std::vector<Tagged>> by_vcpu;
  for (int c = 0; c < table.num_cpus(); ++c) {
    for (const Allocation& alloc : table.cpu(c).allocations) {
      by_vcpu[alloc.vcpu].push_back(Tagged{alloc.start, alloc.end, c});
    }
  }
  for (auto& [vcpu, intervals] : by_vcpu) {
    std::stable_sort(intervals.begin(), intervals.end(),
                     [](const Tagged& a, const Tagged& b) { return a.start < b.start; });
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      if (intervals[i].start < intervals[i - 1].end) {
        std::ostringstream out;
        out << "vcpu " << vcpu << " allocated concurrently on cpu "
            << intervals[i - 1].cpu << " and cpu " << intervals[i].cpu << " at time "
            << intervals[i].start;
        violations->push_back(out.str());
      }
    }
  }
}

TimeNs SupplyIn(const std::vector<Allocation>& intervals, TimeNs window_start,
                TimeNs window_end) {
  TimeNs supply = 0;
  for (const Allocation& alloc : intervals) {
    if (alloc.end <= window_start) {
      continue;
    }
    if (alloc.start >= window_end) {
      break;
    }
    supply += std::min(alloc.end, window_end) - std::max(alloc.start, window_start);
  }
  return supply;
}

TimeNs MaxGap(const std::vector<Allocation>& intervals, TimeNs length) {
  if (intervals.empty()) {
    return length;
  }
  TimeNs worst = 0;
  TimeNs covered_until = intervals.front().start;
  TimeNs first_start = intervals.front().start;
  for (const Allocation& alloc : intervals) {
    if (alloc.start > covered_until) {
      worst = std::max(worst, alloc.start - covered_until);
    }
    covered_until = std::max(covered_until, alloc.end);
  }
  worst = std::max(worst, length - covered_until + first_start);
  return worst;
}

void CheckContract(const SchedulingTable& table, const VcpuContract& contract,
                   const VerifyOptions& options, std::vector<std::string>* violations) {
  const TimeNs length = table.length();
  const std::vector<Allocation> intervals = IntervalsOf(table, contract.vcpu);
  if (contract.dedicated) {
    TimeNs supply = 0;
    for (const Allocation& alloc : intervals) {
      supply += alloc.end - alloc.start;
    }
    if (supply != length) {
      violations->push_back(Describe("dedicated vcpu does not own a full core",
                                     contract.vcpu, supply, length));
    }
    return;
  }
  if (contract.period <= 0 || contract.cost <= 0) {
    std::ostringstream out;
    out << "vcpu " << contract.vcpu << ": malformed contract (C=" << contract.cost
        << ", T=" << contract.period << ")";
    violations->push_back(out.str());
    return;
  }
  if (length % contract.period != 0) {
    violations->push_back(Describe("period does not divide the table length",
                                   contract.vcpu, contract.period, length));
    return;
  }
  const TimeNs windows = length / contract.period;
  const TimeNs donated = std::max<TimeNs>(contract.donated_ns, 0);
  TimeNs total_shortfall = 0;
  for (TimeNs k = 0; k < windows; ++k) {
    const TimeNs window_start = k * contract.period;
    const TimeNs supply = SupplyIn(intervals, window_start, window_start + contract.period);
    if (supply < contract.cost - donated) {
      std::ostringstream out;
      out << "vcpu " << contract.vcpu << " window " << k << " [" << window_start << ", "
          << window_start + contract.period << "): supply " << supply << " < C "
          << contract.cost << " - donated " << donated;
      violations->push_back(out.str());
    }
    total_shortfall += std::max<TimeNs>(0, contract.cost - supply);
  }
  if (total_shortfall > donated) {
    violations->push_back(Describe("summed window shortfall exceeds the donation account",
                                   contract.vcpu, total_shortfall, donated));
  }
  if (options.coalesce_threshold > 0 &&
      donated > windows * 2 * options.coalesce_threshold) {
    violations->push_back(Describe("donation exceeds the coalescing sliver budget",
                                   contract.vcpu, donated,
                                   windows * 2 * options.coalesce_threshold));
  }
  const TimeNs blackout_bound = 2 * (contract.period - contract.cost) +
                                (donated > 0 ? donated + 2 * options.coalesce_threshold : 0);
  const TimeNs blackout = MaxGap(intervals, length);
  if (blackout > blackout_bound) {
    violations->push_back(
        Describe("blackout exceeds 2(T - C) plus coalescing slack", contract.vcpu,
                 blackout, blackout_bound));
  }
  const std::vector<int> cpus = CpusOf(table, contract.vcpu);
  if (contract.split && cpus.size() < 2) {
    violations->push_back(Describe("split vcpu has allocations on fewer than two cores",
                                   contract.vcpu, static_cast<long long>(cpus.size()), 2));
  }
  if (!contract.split && cpus.size() > 1) {
    violations->push_back(
        Describe("unsplit vcpu has allocations on more than one core", contract.vcpu,
                 static_cast<long long>(cpus.size()), 1));
  }
}

std::vector<std::string> VerifyAfterStructure(const SchedulingTable& table,
                                              const std::vector<VcpuContract>& contracts,
                                              const VerifyOptions& options) {
  std::vector<std::string> violations;
  CheckSliceAgreement(table, &violations);
  CheckCrossCoreExclusion(table, &violations);
  for (const VcpuContract& contract : contracts) {
    CheckContract(table, contract, options, &violations);
  }
  return violations;
}

}  // namespace reference

TEST(TableVerifier, MatchesReferenceOnRandomTables) {
  // 12 ms tables on a 10 us grid, 1-4 pCPUs and 1-6 vCPUs placed at random,
  // so pieces of one vCPU overlap across pCPUs, touch, and share starts.
  // Every piece is at least 30 us, so no table breaks the structure check.
  // Contracts cover vCPUs with and without pieces (one id past the last),
  // dedicated, malformed and non-dividing ones, and random costs, split
  // flags and donations.
  constexpr TimeNs kGrid = 10 * kMicrosecond;
  constexpr TimeNs kLength = 12 * kMillisecond;
  constexpr TimeNs kPeriods[] = {1 * kMillisecond, 2 * kMillisecond, 3 * kMillisecond,
                                 4 * kMillisecond, 6 * kMillisecond, 12 * kMillisecond};
  constexpr const char* kKinds[] = {"concurrently",       "window",
                                     "summed",             "donation",
                                     "blackout",           "fewer than two cores",
                                     "more than one core", "dedicated",
                                     "malformed",          "does not divide"};
  Rng rng(41);
  int clean_contracts = 0;
  int equal_starts = 0;
  std::map<std::string, int> seen;
  for (int trial = 0; trial < 500; ++trial) {
    const int num_cpus = static_cast<int>(rng.UniformInt(1, 4));
    const int num_vcpus = static_cast<int>(rng.UniformInt(1, 6));
    std::vector<std::vector<Allocation>> per_cpu(static_cast<std::size_t>(num_cpus));
    for (std::vector<Allocation>& allocations : per_cpu) {
      TimeNs t = 0;
      while (true) {
        const TimeNs gap = rng.UniformInt(0, 2) == 0 ? 0 : kGrid * rng.UniformInt(1, 60);
        const TimeNs length = kGrid * rng.UniformInt(3, 120);
        if (t + gap + length > kLength) {
          break;
        }
        const auto vcpu = static_cast<VcpuId>(rng.UniformInt(0, num_vcpus - 1));
        allocations.push_back(Allocation{vcpu, t + gap, t + gap + length});
        t += gap + length;
      }
    }
    const SchedulingTable table = SchedulingTable::Build(kLength, per_cpu);

    std::vector<VcpuContract> contracts;
    for (VcpuId vcpu = 0; vcpu <= num_vcpus; ++vcpu) {
      VcpuContract contract;
      contract.vcpu = vcpu;
      const std::int64_t kind = rng.UniformInt(0, 11);
      contract.dedicated = kind == 0;
      contract.period = kind == 1 ? 5 * kMillisecond
                                  : kPeriods[rng.UniformInt(0, std::size(kPeriods) - 1)];
      contract.cost = kind == 2 ? 0 : kGrid * rng.UniformInt(1, contract.period / kGrid);
      contract.split = rng.UniformInt(0, 1) == 1;
      contract.donated_ns = rng.UniformInt(0, 2) == 0 ? kGrid * rng.UniformInt(0, 20) : 0;
      contracts.push_back(contract);
    }
    VerifyOptions options;
    options.expected_length = 0;
    options.coalesce_threshold = rng.UniformInt(0, 1) == 1 ? 3 * kGrid : 0;

    const std::vector<std::string> expected =
        reference::VerifyAfterStructure(table, contracts, options);
    ASSERT_EQ(VerifyTable(table, contracts, options), expected) << "trial " << trial;

    for (const std::string& violation : expected) {
      for (const char* kind : kKinds) {
        seen[kind] += violation.find(kind) != std::string::npos ? 1 : 0;
      }
    }
    for (const VcpuContract& contract : contracts) {
      bool named = false;
      const std::string id = "vcpu " + std::to_string(contract.vcpu);
      for (const std::string& violation : expected) {
        named = named || violation.find(id + " ") != std::string::npos ||
                violation.find(id + ":") != std::string::npos;
      }
      clean_contracts += named ? 0 : 1;
    }
    for (std::size_t a = 0; a < per_cpu.size(); ++a) {
      for (std::size_t b = a + 1; b < per_cpu.size(); ++b) {
        for (const Allocation& x : per_cpu[a]) {
          for (const Allocation& y : per_cpu[b]) {
            equal_starts += x.vcpu == y.vcpu && x.start == y.start ? 1 : 0;
          }
        }
      }
    }
  }
  // Every kind of violation occurs, some contracts hold, and some vCPUs
  // have pieces with equal starts on two pCPUs (where the order of the
  // cross-core message's pCPUs is decided).
  for (const char* kind : kKinds) {
    EXPECT_GT(seen[kind], 0) << kind;
  }
  EXPECT_GT(clean_contracts, 0);
  EXPECT_GT(equal_starts, 0);
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
