// Chaos harness: fault intensity x scheduler over the Fig. 5/6 regimes.
//
// Every cell runs a Fig. 5-style intrinsic-latency scenario (CPU-bound loop
// in the vantage VM, I/O-heavy background in the rest) under a ChaosPlan of
// increasing intensity: overhead spikes, timer jitter + coalescing, dropped
// wake-up IPIs with bounded retry, guest budget overruns and wakeup storms.
// The claims to check:
//  - Tableau's table-driven dispatch keeps the maximum scheduling gap close
//    to its blackout bound even at full fault intensity (the table, not the
//    wakeup path, decides who runs);
//  - Credit's boost pathology amplifies: the same faults stretch its maximum
//    gap far more than Tableau's (wakeup-order-dependent boosting compounds
//    with delayed IPIs and storms);
//  - determinism: a fixed seed reproduces the exact trace fingerprint.
//
// A final cell drives runtime replans through ReplanController while the
// fault plan injects planner failures/timeouts: failed replans keep the
// previous table and back off exponentially; the dispatcher never goes
// tableless.
//
// Output: BENCH_faults.json (written by run_all.sh's bench sweep).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/replan.h"
#include "src/faults/fault_plan.h"

using namespace tableau;
using namespace tableau::bench;

namespace {

constexpr std::uint64_t kChaosSeed = 42;

struct FaultCell {
  double max_ms = 0;
  double jitter_ms = 0;
  std::uint64_t fingerprint = 0;
};

FaultCell MeasureCell(SchedKind kind, bool capped, double intensity, TimeNs duration) {
  ScenarioConfig config;
  config.scheduler = kind;
  config.capped = capped;
  config.fault_plan = faults::ChaosPlan(kChaosSeed, intensity);
  if (kind == SchedKind::kTableau) {
    // Exercise the missed-deadline degradation path under timer jitter.
    config.switch_slip_tolerance = kMillisecond;
  }
  Scenario scenario = BuildScenario(config);
  scenario.machine->trace().set_enabled(true);
  scenario.vantage->EnableInstrumentation();
  CpuHogWorkload loop(scenario.machine, scenario.vantage);
  loop.Start(0);
  BackgroundWorkloads background;
  AttachBackground(scenario, Background::kIoHeavy, 1, background);
  scenario.machine->Start();
  scenario.machine->RunFor(duration);
  RecordScenarioMetrics(scenario);
  return FaultCell{ToMs(scenario.vantage->service_gaps().Max()),
                   ToMs(static_cast<TimeNs>(scenario.vantage->service_gaps().StdDev())),
                   TraceFingerprint(*scenario.machine)};
}

void RunMatrix(const char* title, const char* prefix, bool capped,
               const std::vector<SchedKind>& kinds,
               const std::vector<double>& intensities, TimeNs duration,
               BenchJson& json) {
  std::vector<std::function<FaultCell()>> tasks;
  for (const SchedKind kind : kinds) {
    for (const double intensity : intensities) {
      tasks.push_back([=] { return MeasureCell(kind, capped, intensity, duration); });
    }
  }
  const std::vector<FaultCell> cells = RunSimulations(tasks);

  PrintHeader(title);
  std::printf("%-10s |", "");
  for (const double intensity : intensities) {
    std::printf("   i=%4.2f max (jit)  |", intensity);
  }
  std::printf("\n");
  for (std::size_t row = 0; row < kinds.size(); ++row) {
    std::printf("%-10s |", SchedKindName(kinds[row]));
    for (std::size_t col = 0; col < intensities.size(); ++col) {
      const FaultCell& cell = cells[row * intensities.size() + col];
      std::printf(" %8.2fms (%6.3f) |", cell.max_ms, cell.jitter_ms);
      const std::string key = std::string(prefix) + "." + SchedKindName(kinds[row]) +
                              ".i" + std::to_string(static_cast<int>(intensities[col] * 100));
      json.Add(key + ".max_ms", cell.max_ms);
      json.Add(key + ".jitter_ms", cell.jitter_ms);
    }
    std::printf("\n");
  }
}

// Two chaos runs with one seed must replay byte-identically.
void CheckDeterminism(TimeNs duration, BenchJson& json) {
  const FaultCell a = MeasureCell(SchedKind::kTableau, /*capped=*/true, 1.0, duration);
  const FaultCell b = MeasureCell(SchedKind::kTableau, /*capped=*/true, 1.0, duration);
  TABLEAU_CHECK_MSG(a.fingerprint == b.fingerprint,
                    "chaos run not deterministic: %llx vs %llx",
                    static_cast<unsigned long long>(a.fingerprint),
                    static_cast<unsigned long long>(b.fingerprint));
  std::printf("determinism: two intensity-1.0 chaos runs -> identical fingerprint %016llx\n",
              static_cast<unsigned long long>(a.fingerprint));
  json.Add("determinism.identical", 1.0);
}

// Planner-fault cell: periodic replans under injected failures/timeouts.
void RunPlannerFaults(TimeNs duration, BenchJson& json) {
  ScenarioConfig config;
  config.scheduler = SchedKind::kTableau;
  config.capped = true;
  config.fault_plan.seed = kChaosSeed;
  config.fault_plan.planner.failure_probability = 0.3;
  config.fault_plan.planner.timeout_probability = 0.2;
  config.max_latency_degradations = 2;
  Scenario scenario = BuildScenario(config);
  BackgroundWorkloads background;
  AttachBackground(scenario, Background::kIo, 0, background);
  scenario.machine->Start();

  PlannerConfig planner_config;
  planner_config.num_cpus = config.guest_cpus;
  planner_config.fault_injector = scenario.injector;
  planner_config.max_latency_degradations = config.max_latency_degradations;
  const Planner planner(planner_config);
  ReplanController controller(&planner, ReplanController::Config{});
  controller.AttachMetrics(&scenario.machine->metrics());

  PlanResult current = scenario.plan;
  int installed = 0;
  int kept = 0;
  const int rounds = 40;
  for (int i = 0; i < rounds; ++i) {
    scenario.machine->RunFor(duration / rounds);
    const ReplanController::Outcome outcome = controller.TryReplan(
        PlanRequest::Delta(current), scenario.machine->Now());
    if (outcome.installed) {
      current = outcome.plan;
      scenario.tableau->PushTable(std::make_shared<SchedulingTable>(current.table));
      ++installed;
    } else {
      ++kept;
      // Degradation invariant: a failed replan never leaves the dispatcher
      // tableless — the previous table stays in effect.
      TABLEAU_CHECK(scenario.tableau->dispatcher().table_generation() > 0);
    }
  }
  RecordScenarioMetrics(scenario);
  PrintHeader("Planner faults: replans under injected failures (30% fail, 20% timeout)");
  std::printf("replans installed: %d, kept previous table (failed/backoff): %d\n",
              installed, kept);
  json.Add("planner_faults.installed", installed);
  json.Add("planner_faults.kept_previous", kept);
  TABLEAU_CHECK_MSG(installed > 0, "no replan ever succeeded");
  TABLEAU_CHECK_MSG(kept > 0, "planner fault injection never fired");
}

}  // namespace

int main() {
  const TimeNs duration = MeasureDuration(5 * kSecond);
  const std::vector<double> intensities = {0.0, 0.25, 0.5, 1.0};
  BenchJson json("faults");

  RunMatrix("Fault matrix (capped, Fig. 5 regime): max service gap vs intensity",
            "capped", /*capped=*/true,
            {SchedKind::kCredit, SchedKind::kRtds, SchedKind::kTableau}, intensities,
            duration, json);
  RunMatrix("Fault matrix (uncapped, boost regime): max service gap vs intensity",
            "uncapped", /*capped=*/false,
            {SchedKind::kCredit, SchedKind::kCredit2, SchedKind::kTableau}, intensities,
            duration, json);
  std::printf(
      "\ninterpretation: Tableau's max gap stays near its blackout bound across the\n"
      "intensity sweep (table-driven dispatch is insensitive to wakeup-path faults),\n"
      "while Credit amplifies: delayed IPIs and wakeup storms perturb boost ordering\n"
      "and stretch its worst-case gap.\n\n");

  CheckDeterminism(duration / 5, json);
  RunPlannerFaults(2 * kSecond, json);
  json.Write();
  return 0;
}
