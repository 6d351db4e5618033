// Gang scheduling: a 2-vCPU parallel VM with barrier-synchronized phases on
// a 2-core Tableau host. Shows the co-scheduling post-processing pass
// (Sec. 5) in action: with the VM's two slots misaligned in time, every
// phase stalls until both members have had a slot; after the kPrefer pass
// aligns the slots, phases stream back to back and throughput multiplies.
//
//   $ ./examples/gang_scheduling
#include <cstdio>
#include <memory>

#include "src/core/coschedule.h"
#include "src/core/planner.h"
#include "src/schedulers/tableau_scheduler.h"
#include "src/workloads/gang.h"

using namespace tableau;

namespace {

std::uint64_t RunGang(const SchedulingTable& table, TimeNs duration) {
  TableauDispatcher::Config dispatcher;
  dispatcher.work_conserving = false;  // Isolate the table's alignment effect.
  auto owned = std::make_unique<TableauScheduler>(dispatcher);
  TableauScheduler* scheduler = owned.get();
  MachineConfig machine_config;
  machine_config.num_cpus = 2;
  machine_config.cores_per_socket = 2;
  Machine machine(machine_config, std::move(owned));
  VcpuParams params;
  params.cap = 0.25;
  std::vector<Vcpu*> members = {machine.AddVcpu(params), machine.AddVcpu(params)};
  scheduler->PushTable(std::make_shared<SchedulingTable>(table));

  GangWorkload::Config gang_config;
  gang_config.phase_cpu = 500 * kMicrosecond;
  GangWorkload gang(&machine, members, gang_config);
  gang.Start(0);
  machine.Start();
  machine.RunFor(duration);
  return gang.phases_completed();
}

}  // namespace

int main() {
  // Two gang members, one per core, each with a 25% / 20 ms reservation.
  PlannerConfig config;
  config.num_cpus = 2;
  const Planner planner(config);
  PlanResult plan = planner.Solve(
      PlanRequest::Full({{0, 0.25, 20 * kMillisecond}, {1, 0.25, 20 * kMillisecond}}));
  TABLEAU_CHECK(plan.success);

  // Deliberately misalign the two members' slots (half a period apart) to
  // show the worst case, then let the co-scheduling pass re-align them.
  std::vector<std::vector<Allocation>> per_core(2);
  per_core[0] = plan.table.cpu(0).allocations;
  per_core[1] = plan.table.cpu(1).allocations;
  const PeriodicTask& task1 = plan.core_tasks[1][0];
  for (Allocation& alloc : per_core[1]) {
    const TimeNs window = (alloc.start / task1.period) * task1.period;
    alloc.start = window + task1.period - alloc.Length();
    alloc.end = window + task1.period;
  }
  auto misaligned = per_core;

  const TimeNs overlap_before = PairOverlapNs(per_core, 0, 1);
  const CoscheduleStats stats =
      CoschedulePass(per_core, plan.core_tasks, {{0, 1, CoschedulePreference::kPrefer}},
                     plan.table.length());

  const SchedulingTable misaligned_table =
      SchedulingTable::Build(plan.table.length(), std::move(misaligned));
  const SchedulingTable aligned_table =
      SchedulingTable::Build(plan.table.length(), std::move(per_core));
  TABLEAU_CHECK(misaligned_table.Validate().empty());
  TABLEAU_CHECK(aligned_table.Validate().empty());

  std::printf("slot overlap between the two gang members:\n");
  std::printf("  misaligned table: %s per %s\n", FormatDuration(overlap_before).c_str(),
              FormatDuration(plan.table.length()).c_str());
  std::printf("  after kPrefer co-scheduling pass: %s (%d moves)\n",
              FormatDuration(stats.overlap_after).c_str(), stats.moves);

  const TimeNs duration = 10 * kSecond;
  const std::uint64_t phases_misaligned = RunGang(misaligned_table, duration);
  const std::uint64_t phases_aligned = RunGang(aligned_table, duration);
  std::printf("\ngang phases completed in %s (500 us compute per member per phase):\n",
              FormatDuration(duration).c_str());
  std::printf("  misaligned slots: %llu phases\n",
              static_cast<unsigned long long>(phases_misaligned));
  std::printf("  aligned slots:    %llu phases (%.1fx)\n",
              static_cast<unsigned long long>(phases_aligned),
              static_cast<double>(phases_aligned) /
                  static_cast<double>(phases_misaligned));
  std::printf(
      "\nBoth tables grant identical utilization and latency bounds; only the\n"
      "temporal alignment differs — exactly the knob the paper proposes leaving\n"
      "to table post-processing.\n");
  return 0;
}
