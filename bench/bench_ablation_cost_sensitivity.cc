// Ablation: sensitivity of Table 1's qualitative result to the calibrated
// cost constants. The absolute overhead values in Tables 1-2 depend on the
// primitive costs in OverheadCosts (DESIGN.md "Overhead model"); this bench
// scales all primitives by 0.5x / 1x / 2x and re-measures. The claim to
// check is that the *orderings* — Tableau cheapest everywhere, Credit's
// schedule op the most expensive, RTDS's migrate the worst — survive the
// scaling, i.e. the paper's conclusions do not hinge on the calibration
// point.
#include <cstdio>

#include "bench/bench_util.h"

using namespace tableau;
using namespace tableau::bench;

namespace {

OverheadCosts Scaled(double factor) {
  OverheadCosts costs;
  auto scale = [factor](TimeNs value) {
    return static_cast<TimeNs>(static_cast<double>(value) * factor);
  };
  costs.sched_entry = scale(costs.sched_entry);
  costs.wakeup_entry = scale(costs.wakeup_entry);
  costs.cache_local = scale(costs.cache_local);
  costs.cache_same_socket = scale(costs.cache_same_socket);
  costs.cache_remote_socket = scale(costs.cache_remote_socket);
  costs.lock_base = scale(costs.lock_base);
  costs.runq_entry = scale(costs.runq_entry);
  costs.timer_program = scale(costs.timer_program);
  costs.ipi_send = scale(costs.ipi_send);
  costs.ipi_latency = scale(costs.ipi_latency);
  costs.context_switch = scale(costs.context_switch);
  return costs;
}

struct Row {
  double schedule_us;
  double migrate_us;
};

Row Measure(SchedKind kind, const OverheadCosts& costs, TimeNs duration) {
  ScenarioConfig config;
  config.scheduler = kind;
  config.capped = (kind != SchedKind::kCredit2);
  config.costs = costs;
  Scenario scenario = BuildScenario(config);
  BackgroundWorkloads background;
  AttachBackground(scenario, Background::kIo, 0, background);
  scenario.machine->Start();
  scenario.machine->RunFor(duration);
  const obs::MetricsSnapshot metrics = scenario.machine->metrics().Snapshot();
  return Row{MeanOpCostUs(metrics, SchedOp::kSchedule),
             MeanOpCostUs(metrics, SchedOp::kMigrate)};
}

}  // namespace

int main() {
  const TimeNs duration = MeasureDuration(5 * kSecond);
  PrintHeader("Ablation: cost-model sensitivity (16-core scenario, I/O stress)");
  const SchedKind kinds[] = {SchedKind::kCredit, SchedKind::kCredit2, SchedKind::kRtds,
                             SchedKind::kTableau};
  for (const double factor : {0.5, 1.0, 2.0}) {
    const OverheadCosts costs = Scaled(factor);
    std::printf("\nprimitive costs x%.1f:\n", factor);
    std::printf("%-10s %14s %14s\n", "", "Schedule (us)", "Migrate (us)");
    double schedule[4];
    double migrate[4];
    for (int i = 0; i < 4; ++i) {
      const Row row = Measure(kinds[i], costs, duration);
      schedule[i] = row.schedule_us;
      migrate[i] = row.migrate_us;
      std::printf("%-10s %14.2f %14.2f\n", SchedKindName(kinds[i]), row.schedule_us,
                  row.migrate_us);
    }
    const bool tableau_cheapest_schedule =
        schedule[3] < schedule[0] && schedule[3] < schedule[1] && schedule[3] < schedule[2];
    const bool credit_most_expensive_schedule =
        schedule[0] > schedule[1] && schedule[0] > schedule[2];
    const bool rtds_worst_migrate = migrate[2] > migrate[0] && migrate[2] > migrate[1];
    std::printf("orderings hold: Tableau cheapest=%s, Credit schedule top=%s, "
                "RTDS migrate worst=%s\n",
                tableau_cheapest_schedule ? "yes" : "NO",
                credit_most_expensive_schedule ? "yes" : "NO",
                rtds_worst_migrate ? "yes" : "NO");
  }
  return 0;
}
