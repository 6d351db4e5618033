// Ablation: incremental per-core replanning, the Sec. 7.1
// reconfiguration-time optimization ("tables can be incrementally
// re-computed on a per-core basis"). Measures reconfiguration latency for a
// single-VM arrival against a full replan, across machine sizes, and writes
// each row to BENCH_ablation_incremental_plan.json, whose "metrics" block
// holds the incremental solves' phase breakdown (planner.*_ns histograms).
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/core/planner.h"

using namespace tableau;
using namespace tableau::bench;

namespace {

std::vector<VcpuRequest> UniformRequests(int count, TimeNs latency, int first_id = 0) {
  std::vector<VcpuRequest> requests;
  for (int i = 0; i < count; ++i) {
    requests.push_back(VcpuRequest{first_id + i, 0.25, latency});
  }
  return requests;
}

double MeasureMs(const std::function<void()>& fn, int runs) {
  const auto start = std::chrono::steady_clock::now();
  for (int run = 0; run < runs; ++run) {
    fn();
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count() / runs;
}

}  // namespace

int main() {
  PrintHeader("Ablation: incremental replanning vs full replan (one VM arrives)");
  BenchJson json("ablation_incremental_plan");
  std::printf("%6s %6s %14s %14s %10s\n", "cores", "VMs", "full (ms)", "incr (ms)",
              "speedup");
  for (const int cores : {8, 16, 44}) {
    for (const TimeNs latency : {kMillisecond, 20 * kMillisecond}) {
      const int vms = cores * 4 - 2;  // Leave room for the arrival.
      PlannerConfig config;
      config.num_cpus = cores;
      const Planner planner(config);
      // The same planner with phase timers, for the incremental solves only,
      // so the recorded phases are the delta path's alone.
      obs::MetricsRegistry registry;
      config.metrics = &registry;
      const Planner timed_planner(config);
      const PlanResult base =
          planner.Solve(PlanRequest::Full(UniformRequests(vms, latency)));
      TABLEAU_CHECK(base.success);
      const auto arrival = UniformRequests(1, latency, vms);

      const double full_ms = MeasureMs(
          [&] {
            std::vector<VcpuRequest> all = base.requests;
            all.push_back(arrival[0]);
            TABLEAU_CHECK(planner.Solve(PlanRequest::Full(all)).success);
          },
          10);
      const double incr_ms = MeasureMs(
          [&] {
            TABLEAU_CHECK(
                timed_planner.Solve(PlanRequest::Delta(base, arrival)).success);
          },
          10);
      RecordRegistryMetrics(registry);
      std::printf("%6d %6d %11.3f %s %11.3f %s %9.1fx\n", cores, vms, full_ms,
                  latency == kMillisecond ? "(1ms) " : "(20ms)", incr_ms,
                  latency == kMillisecond ? "(1ms) " : "(20ms)", full_ms / incr_ms);
      const std::string row = "cores" + std::to_string(cores) + ".goal" +
                              std::to_string(latency / kMillisecond) + "ms.";
      json.Add(row + "full_ms", full_ms);
      json.Add(row + "incr_ms", incr_ms);
      json.Add(row + "speedup", full_ms / incr_ms);
    }
  }
  json.Write();
  return 0;
}
