// Golden-trace determinism test for the event engine rewrite: full-system
// scenarios (Fig. 5 style: vantage CPU hog + I/O background on a 4-core
// guest) must produce the exact trace-record sequence and aggregate counters
// that the original binary-heap engine produced. The pinned fingerprints
// (GoldenFingerprint) were captured against the seed engine and are
// regenerated with `tableau golden --update`; any reordering of same-time
// events, lost tick, or drifted timestamp in the timer-wheel engine changes
// the hash.
#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/workloads/stress.h"

namespace tableau {
namespace {

std::uint64_t RunOne(SchedKind kind, bool capped) {
  ScenarioConfig config;
  config.scheduler = kind;
  config.capped = capped;
  config.guest_cpus = 4;
  config.cores_per_socket = 2;
  Scenario scenario = BuildScenario(config);
  scenario.machine->trace().set_enabled(true);
  scenario.vantage->EnableInstrumentation();
  CpuHogWorkload loop(scenario.machine, scenario.vantage);
  loop.Start(0);
  BackgroundWorkloads background;
  AttachBackground(scenario, Background::kIo, 1, background);
  scenario.machine->Start();
  scenario.machine->RunFor(300 * kMillisecond);
  return GoldenFingerprint(*scenario.machine);
}

TEST(EngineGolden, CreditCappedMatchesSeedEngine) {
  EXPECT_EQ(RunOne(SchedKind::kCredit, /*capped=*/true), 0x333e06cf99a7599cull);
}

TEST(EngineGolden, RtdsCappedMatchesSeedEngine) {
  EXPECT_EQ(RunOne(SchedKind::kRtds, /*capped=*/true), 0x60d523229e7ecfd0ull);
}

TEST(EngineGolden, TableauCappedMatchesSeedEngine) {
  EXPECT_EQ(RunOne(SchedKind::kTableau, /*capped=*/true), 0x667b8a1e9f596cb5ull);
}

TEST(EngineGolden, CreditUncappedMatchesSeedEngine) {
  EXPECT_EQ(RunOne(SchedKind::kCredit, /*capped=*/false), 0xf4b2c445a055f16full);
}

}  // namespace
}  // namespace tableau
