// Differential-oracle sweep (the nightly-style `check` suite): for every
// scheduler, run >= 1000 fuzzed scenarios — randomized machine shapes, VM
// mixes, workloads, fault plans, replans, slip tolerances — and demand zero
// divergences between the production scheduler and its step-at-a-time
// reference model, plus a verified table behind every Tableau plan.
//
// Any failure here prints the serialized reproducer; paste it into a file
// and replay with `tableau check replay` (or shrink with
// `tableau check fuzz --shrink` around the failing seed).
#include <gtest/gtest.h>

#include <cstdint>

#include "src/check/scenario_fuzz.h"
#include "src/schedulers/factory.h"

namespace tableau::check {
namespace {

constexpr int kScenariosPerScheduler = 1000;

class OracleSweep : public ::testing::TestWithParam<SchedKind> {};

TEST_P(OracleSweep, ThousandFuzzedScenariosNoDivergence) {
  const SchedKind kind = GetParam();
  int ran = 0;
  std::uint64_t total_records = 0;
  // Walk the shared seed stream and keep the scenarios drawn for this
  // scheduler; the bound on seeds is a safety net, not a target.
  for (std::uint64_t seed = 0; ran < kScenariosPerScheduler && seed < 100000;
       ++seed) {
    const ScenarioSpec spec = GenerateSpec(seed);
    if (spec.scheduler != kind) {
      continue;
    }
    const CheckOutcome outcome = RunCheckedScenario(spec);
    ASSERT_TRUE(outcome.violations.empty())
        << "seed " << seed << ": " << outcome.violations.front()
        << "\nreproducer:\n"
        << FormatSpec(spec);
    total_records += outcome.records;
    ++ran;
  }
  ASSERT_EQ(ran, kScenariosPerScheduler);
  // The sweep must actually exercise the scheduler, not no-op through it.
  EXPECT_GT(total_records, static_cast<std::uint64_t>(kScenariosPerScheduler));
}

INSTANTIATE_TEST_SUITE_P(Check, OracleSweep, ::testing::ValuesIn(kAllSchedKinds),
                         [](const ::testing::TestParamInfo<SchedKind>& info) {
                           return SchedKindName(info.param);
                         });

}  // namespace
}  // namespace tableau::check
