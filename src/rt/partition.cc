#include "src/rt/partition.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/thread_pool.h"

namespace tableau {
namespace {

// Below this many candidate cores a parallel scan costs more in hand-off
// latency than the whole scan itself (a linear pass over a load array):
// scanning a few hundred cores takes well under a microsecond serially, so
// only very large (fleet-scale) hosts benefit from chunking the scan.
constexpr int kMinCoresForParallelScan = 256;

// The serial worst-fit choice over [core_begin, core_end): the feasible core
// with minimum load, lowest index breaking ties. Returns -1 if none fits.
// Socket feasibility is resolved by the caller (the range already is the
// socket's core range), so the scan body carries no affinity branch.
int BestCoreInRange(const std::vector<TimeNs>& load, TimeNs demand, TimeNs hyperperiod,
                    int core_begin, int core_end) {
  int best = -1;
  for (int core = core_begin; core < core_end; ++core) {
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

}  // namespace

TimeNs SpareCapacity(const std::vector<PeriodicTask>& core_tasks, TimeNs hyperperiod) {
  return hyperperiod - TotalDemand(core_tasks, hyperperiod);
}

int WorstFitCore(const std::vector<TimeNs>& load, TimeNs demand, int socket,
                 int cores_per_socket, TimeNs hyperperiod, ThreadPool* pool) {
  const int num_cores = static_cast<int>(load.size());
  // A socket-constrained task only ever considers its socket's core range;
  // off-socket cores are excluded up front rather than scanned and skipped.
  const int scan_begin = socket >= 0 ? std::min(socket * cores_per_socket, num_cores) : 0;
  const int scan_end =
      socket >= 0 ? std::min((socket + 1) * cores_per_socket, num_cores) : num_cores;
  const int scan_width = scan_end - scan_begin;
  const int max_chunks =
      pool != nullptr && pool->num_threads() > 1 ? pool->num_threads() : 1;
  if (scan_width < kMinCoresForParallelScan || max_chunks <= 1) {
    return BestCoreInRange(load, demand, hyperperiod, scan_begin, scan_end);
  }
  // Each chunk evaluates a contiguous sub-range; the in-order reduction
  // reproduces the serial min-load / lowest-index choice exactly.
  const int num_chunks = std::min(max_chunks, scan_width);
  std::vector<int> chunk_best(static_cast<std::size_t>(num_chunks));
  ParallelFor(pool, static_cast<std::size_t>(num_chunks),
              [&](std::size_t chunk) {
                const int begin = scan_begin + static_cast<int>(chunk) * scan_width / num_chunks;
                const int end =
                    scan_begin + static_cast<int>(chunk + 1) * scan_width / num_chunks;
                chunk_best[chunk] = BestCoreInRange(load, demand, hyperperiod, begin, end);
              },
              /*grain=*/1);
  int best = -1;
  for (const int candidate : chunk_best) {
    if (candidate != -1 && (best == -1 || load[static_cast<std::size_t>(candidate)] <
                                              load[static_cast<std::size_t>(best)])) {
      best = candidate;
    }
  }
  return best;
}

PartitionResult WorstFitDecreasing(const std::vector<PeriodicTask>& tasks, int num_cores,
                                   TimeNs hyperperiod, ThreadPool* pool) {
  return WorstFitDecreasingNuma(tasks, {}, num_cores, /*cores_per_socket=*/num_cores,
                                hyperperiod, pool);
}

PartitionResult WorstFitDecreasingNuma(const std::vector<PeriodicTask>& tasks,
                                       const std::map<VcpuId, int>& socket_of,
                                       int num_cores, int cores_per_socket,
                                       TimeNs hyperperiod, ThreadPool* pool) {
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
    const int best = WorstFitCore(load, demand, socket, cores_per_socket, hyperperiod, pool);
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
