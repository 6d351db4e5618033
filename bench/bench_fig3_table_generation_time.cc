// Reproduces Fig. 3: table-generation time as a function of the number of
// VMs, for per-VM latency goals of 1 ms, 30 ms, 60 ms, and 100 ms, planned
// for the 48-core server (44 guest cores, up to 4 VMs per core).
//
// The paper's Python/SchedCAT planner peaks below two seconds at 176 VMs;
// this C++ planner is orders of magnitude faster (one of the optimizations
// the paper itself suggests in Sec. 7.1: "a low-level language such as C can
// be used to reduce language runtime overhead"). The claim preserved is the
// shape: time grows with the VM count and is largest for the 1 ms goal,
// whose short periods generate the most table slots.
//
// A second section compares the serial planner against the parallel
// pipeline (PlannerConfig::num_threads) and checks that the parallel plan
// serializes byte-identically to the serial one.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench/bench_util.h"
#include "src/core/planner.h"

using namespace tableau;
using namespace tableau::bench;

namespace {

std::vector<VcpuRequest> MakeRequests(int num_vms, TimeNs latency_goal) {
  std::vector<VcpuRequest> requests;
  for (int i = 0; i < num_vms; ++i) {
    requests.push_back(VcpuRequest{i, 0.25, latency_goal});
  }
  return requests;
}

struct PlanTiming {
  double mean_ms = 0;
  std::vector<std::uint8_t> table_bytes;  // Serialized table of the last run.
  AdmissionBreakdown admission;           // Accumulated over all runs.
};

PlanTiming TimePlans(int num_vms, TimeNs latency_goal, int runs, int threads) {
  // Phase timings (planner.partition_ns, planner.edf_core_sim_ns, ...) and
  // per-worker pool gauges land in the shared bench accumulator and are
  // embedded in BENCH_fig3_table_generation_time.json.
  obs::MetricsRegistry registry;
  PlannerConfig config;
  config.num_cpus = 44;
  config.num_threads = threads;
  config.metrics = &registry;
  const Planner planner(config);
  const std::vector<VcpuRequest> requests = MakeRequests(num_vms, latency_goal);
  PlanTiming timing;
  double total_ms = 0;
  for (int run = 0; run < runs; ++run) {
    const auto start = std::chrono::steady_clock::now();
    const PlanResult plan = planner.Solve(PlanRequest::Full(requests));
    const auto end = std::chrono::steady_clock::now();
    TABLEAU_CHECK_MSG(plan.success, "%s", plan.error.c_str());
    total_ms += std::chrono::duration<double, std::milli>(end - start).count();
    timing.admission.utilization += plan.admission.utilization;
    timing.admission.density += plan.admission.density;
    timing.admission.qpa += plan.admission.qpa;
    timing.admission.simulation += plan.admission.simulation;
    if (run == runs - 1) {
      timing.table_bytes = plan.table.Serialize();
    }
  }
  timing.mean_ms = total_ms / runs;
  RecordRegistryMetrics(registry);
  return timing;
}

double MeanPlanMillis(int num_vms, TimeNs latency_goal, int runs) {
  return TimePlans(num_vms, latency_goal, runs, /*threads=*/1).mean_ms;
}

}  // namespace

int main() {
  PrintHeader("Fig 3: table-generation time vs number of VMs (44 guest cores)");
  const TimeNs goals[] = {kMillisecond, 30 * kMillisecond, 60 * kMillisecond,
                          100 * kMillisecond};
  const int vm_counts[] = {16, 32, 64, 96, 128, 160, 176};
  const int runs = 20;

  BenchJson json("fig3_table_generation_time");
  std::printf("%6s %12s %12s %12s %12s\n", "VMs", "1ms (ms)", "30ms (ms)", "60ms (ms)",
              "100ms (ms)");
  for (const int vms : vm_counts) {
    std::printf("%6d", vms);
    for (const TimeNs goal : goals) {
      const double mean_ms = MeanPlanMillis(vms, goal, runs);
      std::printf(" %12.3f", mean_ms);
      json.Add("vms" + std::to_string(vms) + ".goal" +
                   std::to_string(goal / kMillisecond) + "ms.plan_ms",
               mean_ms);
    }
    std::printf("\n");
  }
  std::printf("\npaper: Python/SchedCAT planner stays below 2,000 ms at 176 VMs;\n");
  std::printf("shape to check: monotone growth in VM count, 1 ms goal the slowest.\n");

  PrintHeader("Parallel pipeline: serial vs parallel (1 ms goal, 44 guest cores)");
  const int parallel_runs = 8;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // Clamp to the hardware: threads beyond physical parallelism can only add
  // hand-off overhead. The fixed-8 oversubscription column below keeps the
  // cross-host comparable overhead measurement.
  const int parallel_threads = static_cast<int>(std::min(8u, hw));
  std::printf("hardware threads: %u; parallel planner uses %d thread(s)\n", hw,
              parallel_threads);
  if (parallel_threads <= 1) {
    std::printf("(single-CPU host: speedup > 1 is unattainable; the gate is off)\n");
  }
  std::printf("\n%6s %12s %14s %9s %10s %10s\n", "VMs", "serial (ms)",
              "parallel (ms)", "speedup", "identical", "analytic%");
  double largest_vms_speedup = 0;
  for (const int vms : {48, 96, 176}) {
    const PlanTiming serial = TimePlans(vms, kMillisecond, parallel_runs, 1);
    const PlanTiming parallel =
        TimePlans(vms, kMillisecond, parallel_runs, parallel_threads);
    const bool identical = serial.table_bytes == parallel.table_bytes;
    TABLEAU_CHECK_MSG(identical, "parallel plan diverged from serial at %d VMs", vms);
    const double speedup = serial.mean_ms / parallel.mean_ms;
    largest_vms_speedup = speedup;  // The loop ends at the largest VM count.
    const double analytic_fraction =
        parallel.admission.total() > 0
            ? static_cast<double>(parallel.admission.analytic()) /
                  static_cast<double>(parallel.admission.total())
            : 0.0;
    std::printf("%6d %12.3f %14.3f %8.2fx %10s %9.1f%%\n", vms, serial.mean_ms,
                parallel.mean_ms, speedup, identical ? "yes" : "NO",
                100.0 * analytic_fraction);
    const std::string prefix = "parallel.vms" + std::to_string(vms);
    json.Add(prefix + ".serial_ms", serial.mean_ms);
    json.Add(prefix + ".parallel_ms", parallel.mean_ms);
    json.Add(prefix + ".speedup", speedup);
    json.Add(prefix + ".admission_analytic_fraction", analytic_fraction);
    if (parallel_threads != 8) {
      // Oversubscribed fixed-8 measurement: on narrow hosts this is pure
      // hand-off overhead, recorded so runs on different machines stay
      // comparable against historical numbers.
      const PlanTiming oversub = TimePlans(vms, kMillisecond, parallel_runs, 8);
      TABLEAU_CHECK_MSG(oversub.table_bytes == serial.table_bytes,
                        "8-thread plan diverged from serial at %d VMs", vms);
      std::printf("%6s %12s %14.3f %8.2fx %10s %10s  (8 threads, oversubscribed)\n",
                  "", "", oversub.mean_ms, serial.mean_ms / oversub.mean_ms, "yes", "");
      json.Add(prefix + ".oversubscribed8_ms", oversub.mean_ms);
      json.Add(prefix + ".oversubscribed8_speedup", serial.mean_ms / oversub.mean_ms);
    }
  }
  json.Add("parallel.hardware_threads", static_cast<double>(hw));
  json.Add("parallel.effective_threads", static_cast<double>(parallel_threads));
  std::printf("\nparallel stages: per-core EDF simulation and C=D split-point probes;\n");
  std::printf("merge is per-core-indexed, so byte-identical.\n");
  std::printf("analytic%%: admission decisions resolved without an EDF simulation.\n");

  // CI smoke gate (TABLEAU_BENCH_GATE=1): with real parallelism available,
  // the parallel planner must not lose to the serial one at the largest VM
  // count. On single-threaded hosts the gate is informational only.
  if (const char* gate = std::getenv("TABLEAU_BENCH_GATE");
      gate != nullptr && gate[0] == '1' && parallel_threads > 1) {
    TABLEAU_CHECK_MSG(largest_vms_speedup >= 1.0,
                      "parallel speedup %.3f < 1.0 at 176 VMs with %d threads",
                      largest_vms_speedup, parallel_threads);
    std::printf("bench gate: parallel speedup %.2fx >= 1.0 at 176 VMs (enforced)\n",
                largest_vms_speedup);
  }
  json.Write();
  return 0;
}
