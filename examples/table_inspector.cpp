// Table inspector: plans a configuration given on the command line and
// renders the resulting scheduling table as an ASCII timeline, together with
// per-vCPU guarantee and structure statistics. Useful for understanding what
// the planner actually builds.
//
//   $ ./examples/table_inspector                 # default: 12 vCPUs / 4 cores
//   $ ./examples/table_inspector 4 0.6:40 0.6:40 0.6:40   # cores then U:L(ms) specs
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/planner.h"

using namespace tableau;

namespace {

void RenderTimeline(const SchedulingTable& table) {
  constexpr int kColumns = 96;
  const double ns_per_column =
      static_cast<double>(table.length()) / static_cast<double>(kColumns);
  std::printf("\ntimeline (one row per pCPU, %s per column; '.' = idle)\n",
              FormatDuration(static_cast<TimeNs>(ns_per_column)).c_str());
  for (int cpu = 0; cpu < table.num_cpus(); ++cpu) {
    std::string row(kColumns, '.');
    for (const Allocation& alloc : table.cpu(cpu).allocations) {
      const int first = static_cast<int>(static_cast<double>(alloc.start) / ns_per_column);
      int last = static_cast<int>(static_cast<double>(alloc.end - 1) / ns_per_column);
      last = std::min(last, kColumns - 1);
      const char symbol = static_cast<char>(
          alloc.vcpu < 10 ? '0' + alloc.vcpu : 'a' + (alloc.vcpu - 10) % 26);
      for (int column = first; column <= last; ++column) {
        row[static_cast<std::size_t>(column)] = symbol;
      }
    }
    std::printf("cpu%-2d |%s|\n", cpu, row.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  int cores = 4;
  std::vector<VcpuRequest> requests;
  if (argc >= 3) {
    cores = std::atoi(argv[1]);
    for (int arg = 2; arg < argc; ++arg) {
      double utilization = 0;
      double latency_ms = 0;
      if (std::sscanf(argv[arg], "%lf:%lf", &utilization, &latency_ms) != 2) {
        std::fprintf(stderr, "bad spec '%s'; expected U:L_ms (e.g. 0.25:20)\n",
                     argv[arg]);
        return 1;
      }
      requests.push_back(VcpuRequest{static_cast<VcpuId>(requests.size()), utilization,
                                     static_cast<TimeNs>(latency_ms * kMillisecond)});
    }
  } else {
    // Default: a mixed configuration that exercises different periods.
    for (int i = 0; i < 2; ++i) {
      requests.push_back({static_cast<VcpuId>(requests.size()), 0.5, 10 * kMillisecond});
    }
    for (int i = 0; i < 4; ++i) {
      requests.push_back({static_cast<VcpuId>(requests.size()), 0.25, 30 * kMillisecond});
    }
    for (int i = 0; i < 6; ++i) {
      requests.push_back(
          {static_cast<VcpuId>(requests.size()), 0.10, 100 * kMillisecond});
    }
  }

  PlannerConfig config;
  config.num_cpus = cores;
  const Planner planner(config);
  const PlanResult plan = planner.Solve(PlanRequest::Full(requests));
  if (!plan.success) {
    std::fprintf(stderr, "planner failed: %s\n", plan.error.c_str());
    return 1;
  }

  std::printf("method: %s, table length %s, serialized %zu bytes\n",
              PlanMethodName(plan.method), FormatDuration(plan.table.length()).c_str(),
              plan.table.SerializedSizeBytes());

  std::printf("\n%-5s %8s %12s %12s %12s %12s %12s %6s\n", "vcpu", "U", "C", "T",
              "2(T-C) bound", "E[wait]", "max wait", "split");
  for (const VcpuPlan& vcpu : plan.vcpus) {
    const LatencyProfile profile = AnalyzeWakeupLatency(plan.table, vcpu.vcpu);
    std::printf("%-5d %7.2f%% %12s %12s %12s %12s %12s %6s\n", vcpu.vcpu,
                100.0 * vcpu.requested_utilization, FormatDuration(vcpu.cost).c_str(),
                FormatDuration(vcpu.period).c_str(),
                FormatDuration(vcpu.blackout_bound).c_str(),
                FormatDuration(profile.mean).c_str(),
                FormatDuration(profile.max).c_str(), vcpu.split ? "yes" : "no");
  }

  std::printf("\nper-pCPU structure:\n");
  for (int cpu = 0; cpu < plan.table.num_cpus(); ++cpu) {
    const CpuTable& cpu_table = plan.table.cpu(cpu);
    TimeNs busy = 0;
    for (const Allocation& alloc : cpu_table.allocations) {
      busy += alloc.Length();
    }
    std::printf("cpu%-2d: %3zu allocations, %4zu slices of %s, %5.1f%% reserved\n", cpu,
                cpu_table.allocations.size(), cpu_table.num_slices(),
                FormatDuration(cpu_table.slice_length).c_str(),
                100.0 * static_cast<double>(busy) /
                    static_cast<double>(plan.table.length()));
  }

  RenderTimeline(plan.table);
  return 0;
}
