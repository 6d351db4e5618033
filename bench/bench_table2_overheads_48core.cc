// Reproduces Table 2: average runtime overheads (in us) for three key
// scheduler operations on the 48-core, 4-socket server (44 guest cores, 176
// single-vCPU VMs, I/O-intensive stress).
//
// Paper reference values (us):
//            Credit  Credit2  RTDS    Tableau
//  Schedule  16.40   4.70     4.39    2.49
//  Wakeup    7.07    5.61     19.16   1.82
//  Migrate   0.42    18.19    168.62  0.66
//
// The headline claim: "RTDS' global lock does not scale well: on average,
// RTDS spends over 168us while attempting to migrate a VM each time it is
// preempted", while Tableau's core-local design stays flat.
#include <cstdio>

#include "bench/bench_util.h"

using namespace tableau;
using namespace tableau::bench;

namespace {

struct Row {
  double schedule_us;
  double wakeup_us;
  double migrate_us;
};

Row MeasureScheduler(SchedKind kind, TimeNs duration) {
  ScenarioConfig config;
  config.scheduler = kind;
  config.guest_cpus = 44;
  config.cores_per_socket = 11;  // 4 sockets.
  config.capped = (kind != SchedKind::kCredit2);
  Scenario scenario = BuildScenario(config);
  BackgroundWorkloads background;
  AttachBackground(scenario, Background::kIo, 0, background);
  scenario.machine->Start();
  scenario.machine->RunFor(duration);
  RecordScenarioMetrics(scenario);
  const obs::MetricsSnapshot metrics = scenario.machine->metrics().Snapshot();
  return Row{MeanOpCostUs(metrics, SchedOp::kSchedule),
             MeanOpCostUs(metrics, SchedOp::kWakeup),
             MeanOpCostUs(metrics, SchedOp::kMigrate)};
}

}  // namespace

int main() {
  const TimeNs duration = MeasureDuration(5 * kSecond);
  PrintHeader("Table 2: mean scheduler-operation overheads (us), 48-core 4-socket");
  std::printf("(44 guest cores, 176 VMs, I/O-intensive stress, %.0f s simulated)\n",
              ToSec(duration));

  const SchedKind kinds[] = {SchedKind::kCredit, SchedKind::kCredit2, SchedKind::kRtds,
                             SchedKind::kTableau};
  std::vector<std::function<Row()>> tasks;
  for (const SchedKind kind : kinds) {
    tasks.push_back([=] { return MeasureScheduler(kind, duration); });
  }
  const std::vector<Row> rows = RunSimulations(tasks);

  std::printf("%-10s %8s %8s %8s %8s\n", "", "Credit", "Credit2", "RTDS", "Tableau");
  std::printf("%-10s %8.2f %8.2f %8.2f %8.2f\n", "Schedule", rows[0].schedule_us,
              rows[1].schedule_us, rows[2].schedule_us, rows[3].schedule_us);
  std::printf("%-10s %8.2f %8.2f %8.2f %8.2f\n", "Wakeup", rows[0].wakeup_us,
              rows[1].wakeup_us, rows[2].wakeup_us, rows[3].wakeup_us);
  std::printf("%-10s %8.2f %8.2f %8.2f %8.2f\n", "Migrate", rows[0].migrate_us,
              rows[1].migrate_us, rows[2].migrate_us, rows[3].migrate_us);
  std::printf("\npaper:     Schedule 16.40 /  4.70 /   4.39 / 2.49\n");
  std::printf("           Wakeup    7.07 /  5.61 /  19.16 / 1.82\n");
  std::printf("           Migrate   0.42 / 18.19 / 168.62 / 0.66\n");

  BenchJson json("table2_overheads_48core");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string sched = SchedKindName(kinds[i]);
    json.Add(sched + ".schedule_us", rows[i].schedule_us);
    json.Add(sched + ".wakeup_us", rows[i].wakeup_us);
    json.Add(sched + ".migrate_us", rows[i].migrate_us);
  }
  json.Write();
  return 0;
}
