#include "src/rt/partition.h"

#include <algorithm>

#include "src/common/check.h"

namespace tableau {

TimeNs SpareCapacity(const std::vector<PeriodicTask>& core_tasks, TimeNs hyperperiod) {
  return hyperperiod - TotalDemand(core_tasks, hyperperiod);
}

int WorstFitCore(const std::vector<TimeNs>& load, TimeNs demand, int socket,
                 int cores_per_socket, TimeNs hyperperiod) {
  const int num_cores = static_cast<int>(load.size());
  // A socket-constrained task only ever considers its socket's core range;
  // off-socket cores are excluded up front rather than scanned and skipped.
  const int scan_begin = socket >= 0 ? std::min(socket * cores_per_socket, num_cores) : 0;
  const int scan_end =
      socket >= 0 ? std::min((socket + 1) * cores_per_socket, num_cores) : num_cores;
  int best = -1;
  for (int core = scan_begin; core < scan_end; ++core) {
    const auto c = static_cast<std::size_t>(core);
    if (load[c] + demand > hyperperiod) {
      continue;
    }
    if (best == -1 || load[c] < load[static_cast<std::size_t>(best)]) {
      best = core;
    }
  }
  return best;
}

PartitionResult WorstFitDecreasing(const std::vector<PeriodicTask>& tasks, int num_cores,
                                   TimeNs hyperperiod) {
  return WorstFitDecreasingNuma(tasks, {}, num_cores, /*cores_per_socket=*/num_cores,
                                hyperperiod);
}

PartitionResult WorstFitDecreasingNuma(const std::vector<PeriodicTask>& tasks,
                                       const std::map<VcpuId, int>& socket_of,
                                       int num_cores, int cores_per_socket,
                                       TimeNs hyperperiod) {
  TABLEAU_CHECK(num_cores >= 0);
  PartitionResult result;
  result.core_tasks.resize(static_cast<std::size_t>(num_cores));
  if (tasks.empty()) {
    // Nothing to place (e.g. every vCPU landed on a dedicated core): an
    // empty assignment is trivially complete, even over zero shared cores.
    result.complete = true;
    return result;
  }
  TABLEAU_CHECK(num_cores > 0);
  TABLEAU_CHECK(cores_per_socket > 0);

  std::vector<PeriodicTask> sorted = tasks;
  std::sort(sorted.begin(), sorted.end(), [&](const PeriodicTask& a, const PeriodicTask& b) {
    const TimeNs da = a.DemandPerHyperperiod(hyperperiod);
    const TimeNs db = b.DemandPerHyperperiod(hyperperiod);
    if (da != db) return da > db;
    return a.vcpu < b.vcpu;  // Deterministic order for equal demands.
  });

  std::vector<TimeNs> load(static_cast<std::size_t>(num_cores), 0);
  for (const PeriodicTask& task : sorted) {
    const TimeNs demand = task.DemandPerHyperperiod(hyperperiod);
    const auto it = socket_of.find(task.vcpu);
    const int socket = it != socket_of.end() ? it->second : -1;
    const int best = WorstFitCore(load, demand, socket, cores_per_socket, hyperperiod);
    if (best == -1) {
      result.unassigned.push_back(task);
    } else {
      const auto b = static_cast<std::size_t>(best);
      result.core_tasks[b].push_back(task);
      load[b] += demand;
    }
  }
  result.complete = result.unassigned.empty();
  return result;
}

}  // namespace tableau
