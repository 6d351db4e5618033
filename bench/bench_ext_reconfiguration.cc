// Extension bench: end-to-end reconfiguration cost (Secs. 6 and 7.1). When a
// VM is admitted at runtime, the total "reconfiguration latency" is
//   planning time + table push + switch-in-effect delay,
// where the switch delay is bounded by two rounds of the current table
// (~205 ms for the 102.7 ms hyperperiod) by the lock-free time-synchronized
// protocol. This bench measures each component on a live simulated host,
// demonstrating the paper's claim that reconfigurations cost "a few hundred
// milliseconds" end to end — with the switch protocol, not planning, as the
// dominant term in this implementation.
#include <cstdio>
#include <chrono>
#include <memory>

#include "bench/bench_util.h"

using namespace tableau;
using namespace tableau::bench;

int main() {
  PrintHeader("Extension: end-to-end reconfiguration latency (one VM arrives)");
  std::printf("%10s | %12s %12s %12s\n", "push at", "plan (ms)", "switch (ms)",
              "total (ms)");

  for (const TimeNs push_offset :
       {10 * kMillisecond, 60 * kMillisecond, 101 * kMillisecond}) {
    ScenarioConfig config;
    config.scheduler = SchedKind::kTableau;
    config.capped = true;
    Scenario scenario = BuildScenario(config);
    // Free one slot: plan for 47 of the 48 vCPUs initially.
    std::vector<VcpuRequest> requests;
    for (int i = 0; i < 47; ++i) {
      requests.push_back({i, 0.25, 20 * kMillisecond});
    }
    PlannerConfig planner_config;
    planner_config.num_cpus = config.guest_cpus;
    const Planner planner(planner_config);
    PlanResult base = planner.Solve(PlanRequest::Full(requests));
    TABLEAU_CHECK(base.success);
    scenario.tableau->PushTable(std::make_shared<SchedulingTable>(base.table));

    BackgroundWorkloads background;
    AttachBackground(scenario, Background::kIo, 0, background);
    scenario.machine->Start();
    scenario.machine->RunFor(push_offset);

    // VM 47 arrives: incremental replan, table push, timed switch.
    const auto wall_start = std::chrono::steady_clock::now();
    const PlanResult next =
        planner.Solve(PlanRequest::Delta(base, {{47, 0.25, 20 * kMillisecond}}));
    TABLEAU_CHECK(next.success);
    const double plan_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  wall_start)
            .count();

    const TimeNs pushed_at = scenario.machine->Now();
    scenario.tableau->PushTable(std::make_shared<SchedulingTable>(next.table));
    const TimeNs effective_at = scenario.tableau->dispatcher().pending_switch_time();
    const double switch_ms = ToMs(effective_at - pushed_at);

    std::printf("%9.0fms | %12.3f %12.1f %12.1f\n", ToMs(push_offset), plan_ms,
                switch_ms, plan_ms + switch_ms);

    // Sanity: run past the switch; the new vCPU's reservation is in effect.
    scenario.machine->RunFor(effective_at - pushed_at + 300 * kMillisecond);
    TABLEAU_CHECK(scenario.tableau->dispatcher().pending_switch_time() == kTimeNever);
  }

  std::printf(
      "\ninterpretation: planning is sub-millisecond (C++ planner + incremental\n"
      "replanning) and the time-synchronized switch dominates at 1-2 rounds of\n"
      "the 102.7 ms table — consistent with the paper's 'few hundred\n"
      "milliseconds per reconfiguration' and far below Xen's multi-second VM\n"
      "creation times (Sec. 7.1).\n");
  return 0;
}
