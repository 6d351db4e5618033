// Quickstart: plan a Tableau table for a small machine, inspect the
// guarantees, and run the simulated hypervisor for two seconds with a
// CPU-bound vantage VM and an I/O-intensive background load.
//
//   $ ./examples/quickstart
#include <cstdio>
#include <memory>

#include "src/core/planner.h"
#include "src/harness/scenario.h"
#include "src/workloads/stress.h"

using namespace tableau;

int main() {
  // 1. Plan: 4 cores, 16 vCPUs, each reserving 25% with a 20 ms latency goal.
  ScenarioConfig config;
  config.scheduler = SchedKind::kTableau;
  config.guest_cpus = 4;
  config.cores_per_socket = 4;
  config.capped = false;
  Scenario scenario = BuildScenario(config);

  std::printf("planner method: %s\n", PlanMethodName(scenario.plan.method));
  std::printf("table length:   %s, serialized %zu bytes\n",
              FormatDuration(scenario.plan.table.length()).c_str(),
              scenario.plan.table.SerializedSizeBytes());
  const VcpuPlan& plan0 = scenario.plan.vcpus.front();
  std::printf("vCPU 0: C=%s T=%s  (U=%.3f requested %.3f), blackout bound %s\n",
              FormatDuration(plan0.cost).c_str(), FormatDuration(plan0.period).c_str(),
              plan0.effective_utilization, plan0.requested_utilization,
              FormatDuration(plan0.blackout_bound).c_str());
  std::printf("table-measured max blackout for vCPU 0: %s (goal %s)\n",
              FormatDuration(AnalyzeWakeupLatency(scenario.plan.table, 0).max).c_str(),
              FormatDuration(plan0.latency_goal).c_str());

  // 2. Run: vantage VM spins (redis-cli --intrinsic-latency style), the other
  //    15 VMs run an I/O-intensive stress loop.
  Machine& machine = *scenario.machine;
  scenario.vantage->EnableInstrumentation();
  CpuHogWorkload hog(&machine, scenario.vantage);
  hog.Start(0);

  std::vector<std::unique_ptr<StressIoWorkload>> background;
  for (std::size_t i = 1; i < scenario.vcpus.size(); ++i) {
    StressIoWorkload::Config stress;
    stress.seed = i;
    background.push_back(
        std::make_unique<StressIoWorkload>(&machine, scenario.vcpus[i], stress));
    background.back()->Start(0);
  }

  machine.Start();
  machine.RunFor(2 * kSecond);

  // 3. Report.
  const Histogram& gaps = scenario.vantage->service_gaps();
  std::printf("\nafter 2s simulated:\n");
  std::printf("vantage service: %s (%.1f%% of wall time)\n",
              FormatDuration(scenario.vantage->total_service()).c_str(),
              100.0 * ToSec(scenario.vantage->total_service()) / 2.0);
  std::printf("vantage scheduling gaps: mean %s  p99 %s  max %s  (n=%llu)\n",
              FormatDuration(static_cast<TimeNs>(gaps.Mean())).c_str(),
              FormatDuration(gaps.Percentile(0.99)).c_str(),
              FormatDuration(gaps.Max()).c_str(),
              static_cast<unsigned long long>(gaps.Count()));
  std::printf("second-level share of vantage dispatches: %.1f%%\n",
              100.0 * machine.SecondLevelFraction(scenario.vantage->id()));
  const obs::MetricsSnapshot metrics = machine.metrics().Snapshot();
  std::printf("mean schedule overhead: %.2fus over %llu invocations\n",
              ToUs(static_cast<TimeNs>(
                  metrics.values.at(SchedOpMetric(SchedOp::kSchedule)).hist.Mean())),
              static_cast<unsigned long long>(machine.schedule_invocations()));
  return 0;
}
