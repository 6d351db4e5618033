// Ablation: O(1) slice-table lookup vs. linear allocation scan (Sec. 6,
// "O(1) dispatch"). Uses google-benchmark to measure the real host-CPU cost
// of the two dispatcher lookup paths on planner-generated tables of
// increasing density, plus the planner itself.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/core/planner.h"
#include "src/rt/hyperperiod.h"
#include "tests/table_oracles.h"

namespace tableau {
namespace {

SchedulingTable MakeTable(int num_vms, TimeNs latency_goal) {
  PlannerConfig config;
  config.num_cpus = 12;
  const Planner planner(config);
  std::vector<VcpuRequest> requests;
  for (int i = 0; i < num_vms; ++i) {
    requests.push_back(VcpuRequest{i, 12.0 / num_vms, latency_goal});
  }
  PlanResult plan = planner.Solve(PlanRequest::Full(requests));
  TABLEAU_CHECK_MSG(plan.success, "%s", plan.error.c_str());
  return std::move(plan.table);
}

void BM_SliceLookup(benchmark::State& state) {
  const SchedulingTable table = MakeTable(static_cast<int>(state.range(0)),
                                          state.range(1) * kMillisecond);
  TimeNs offset = 0;
  int cpu = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Lookup(cpu, offset));
    offset = (offset + 313'373) % table.length();
    cpu = (cpu + 1) % table.num_cpus();
  }
}

void BM_LinearLookup(benchmark::State& state) {
  const SchedulingTable table = MakeTable(static_cast<int>(state.range(0)),
                                          state.range(1) * kMillisecond);
  TimeNs offset = 0;
  int cpu = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LookupLinear(table, cpu, offset));
    offset = (offset + 313'373) % table.length();
    cpu = (cpu + 1) % table.num_cpus();
  }
}

void BM_PlannerEndToEnd(benchmark::State& state) {
  PlannerConfig config;
  config.num_cpus = 12;
  const Planner planner(config);
  std::vector<VcpuRequest> requests;
  const int num_vms = static_cast<int>(state.range(0));
  for (int i = 0; i < num_vms; ++i) {
    requests.push_back(VcpuRequest{i, 12.0 / num_vms, 20 * kMillisecond});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Solve(PlanRequest::Full(requests)));
  }
}

// (num_vms, latency goal in ms): denser tables stress the lookup more.
BENCHMARK(BM_SliceLookup)->Args({48, 20})->Args({48, 1})->Args({96, 1});
BENCHMARK(BM_LinearLookup)->Args({48, 20})->Args({48, 1})->Args({96, 1});
BENCHMARK(BM_PlannerEndToEnd)->Arg(16)->Arg(48)->Arg(96);

}  // namespace
}  // namespace tableau

BENCHMARK_MAIN();
