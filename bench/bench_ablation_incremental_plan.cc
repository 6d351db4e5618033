// Ablation: incremental per-core replanning, the Sec. 7.1
// reconfiguration-time optimization ("tables can be incrementally
// re-computed on a per-core basis"). Measures reconfiguration latency for a
// single-VM arrival against a full replan, across machine sizes, then a
// seeded arrive / depart / resize stream at 44 and at 176 pCPUs, where a
// delta should cost the same since each touches about one pCPU. Writes each
// row to BENCH_ablation_incremental_plan.json, whose "metrics" block holds
// the single-arrival incremental solves' phase breakdown (planner.*_ns
// histograms).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/common/rng.h"
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

// One step of a churn stream: a departure, an arrival, or a resize (the
// vCPU departs and re-enters at its new size).
struct ChurnStep {
  std::vector<VcpuRequest> added;
  std::vector<VcpuId> departed;
};

// plan_churn's stream (perfbench/plan_workloads.cc) scaled to a host of
// `cpus` pCPUs that starts with `vms` VMs at U = 0.25 and a 1 ms goal.
// Arrivals turn into departures above vms + vms / 20 VMs or past 42/44 of
// the pCPUs committed, and departures into resizes below vms - vms / 20. A
// resize moves a U = 0.25 VM to 0.125 or 0.375 while fewer than vms / 20
// VMs are off 0.25, and otherwise moves one of those back.
std::vector<ChurnStep> ChurnStream(int cpus, int vms, int steps, Rng& rng) {
  std::vector<VcpuRequest> live = UniformRequests(vms, kMillisecond);
  const int swing = vms / 20;
  const double max_committed = 42.0 * cpus / 44;
  double committed = 0.25 * vms;
  VcpuId next_id = vms;
  std::vector<ChurnStep> stream;
  for (int step = 0; step < steps; ++step) {
    ChurnStep delta;
    std::int64_t op = rng.UniformInt(0, 2);
    const int size = static_cast<int>(live.size());
    if (op == 0 && (size >= vms + swing || committed + 0.25 > max_committed)) {
      op = 1;
    }
    if (op == 1 && size <= vms - swing) {
      op = 2;
    }
    if (op == 0) {
      delta.added.push_back(VcpuRequest{next_id++, 0.25, kMillisecond});
      committed += 0.25;
      live.push_back(delta.added.back());
    } else {
      std::vector<std::size_t> resized;
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].utilization != 0.25) {
          resized.push_back(i);
        }
      }
      const bool restore = op == 2 && static_cast<int>(resized.size()) >= swing;
      const std::size_t victim =
          restore ? resized[static_cast<std::size_t>(
                        rng.UniformInt(0, static_cast<std::int64_t>(resized.size()) - 1))]
                  : static_cast<std::size_t>(rng.UniformInt(0, size - 1));
      const VcpuRequest old = live[victim];
      delta.departed.push_back(old.vcpu);
      committed -= old.utilization;
      if (op == 1) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        double level = 0.25;
        if (old.utilization == 0.25) {
          level = rng.UniformInt(0, 1) == 0 ? 0.125 : 0.375;
        }
        if (committed + level > max_committed) {
          level = 0.125;
        }
        live[victim].utilization = level;
        committed += level;
        delta.added.push_back(live[victim]);
      }
    }
    stream.push_back(std::move(delta));
  }
  return stream;
}

double Quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return samples[static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1))];
}

// Solves `steps` churn deltas in sequence and records the row: delta p50 and
// p99 in ms (over `steps` samples), plans per second of solve time, and how
// many steps fell back to a full solve.
void ChurnRow(int cpus, int vms, int steps, BenchJson& json) {
  obs::MetricsRegistry registry;
  PlannerConfig config;
  config.num_cpus = cpus;
  config.metrics = &registry;
  config.wall_timings = false;
  const Planner planner(config);
  Rng rng(2018);
  const std::vector<ChurnStep> stream = ChurnStream(cpus, vms, steps, rng);
  PlanResult plan = planner.Solve(PlanRequest::Full(UniformRequests(vms, kMillisecond)));
  TABLEAU_CHECK(plan.success);
  const std::int64_t full_solves_before = registry.GetCounter("planner.plans")->value();
  std::vector<double> ms;
  for (const ChurnStep& step : stream) {
    const auto start = std::chrono::steady_clock::now();
    PlanResult next = planner.Solve(PlanRequest::Delta(plan, step.added, step.departed));
    ms.push_back(std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                           start)
                     .count());
    TABLEAU_CHECK_MSG(next.success, "churn step failed: %s", next.error.c_str());
    plan = std::move(next);
  }
  double total_ms = 0;
  for (const double sample : ms) {
    total_ms += sample;
  }
  const auto fallbacks = static_cast<double>(registry.GetCounter("planner.plans")->value() -
                                             full_solves_before);
  const double p50 = Quantile(ms, 0.5);
  const double p99 = Quantile(ms, 0.99);
  std::printf("%6d %6d %8d %11.3f %11.3f %11.0f %10.0f\n", cpus, vms, steps, p50, p99,
              1e3 * steps / total_ms, fallbacks);
  const std::string row = "churn.cores" + std::to_string(cpus) + ".";
  json.Add(row + "vms", vms);
  json.Add(row + "steps", steps);
  json.Add(row + "delta_p50_ms", p50);
  json.Add(row + "delta_p99_ms", p99);
  json.Add(row + "plans_per_s", 1e3 * steps / total_ms);
  json.Add(row + "full_fallbacks", fallbacks);
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

  PrintHeader("Churn: seeded arrive / depart / resize deltas, 1 ms goal");
  std::printf("%6s %6s %8s %11s %11s %11s %10s\n", "cores", "VMs", "steps", "p50 (ms)",
              "p99 (ms)", "plans/s", "fallbacks");
  // Four VMs per pCPU at 176 (the paper's density); 160 on 44 is
  // perfbench's plan_churn host. The 176-pCPU stream is shorter so that an
  // audited run (TABLEAU_VERIFY_TABLES=1, ~0.1 s per table under ASan)
  // stays within tens of seconds.
  ChurnRow(44, 160, 400, json);
  ChurnRow(176, 704, 200, json);
  json.Write();
  return 0;
}
