// Worst-fit-decreasing partitioning of periodic tasks onto cores (Sec. 5,
// "Partitioning").
//
// Tasks are sorted by utilization (exact per-hyperperiod demand) in
// descending order, and each is assigned to the least-utilized core with
// enough remaining capacity. For implicit-deadline tasks on a uniprocessor,
// total demand <= hyperperiod is exactly EDF-schedulability, so no separate
// test is needed at this stage. Tasks that fit on no core are returned for
// the semi-partitioning (C=D) stage.
#ifndef SRC_RT_PARTITION_H_
#define SRC_RT_PARTITION_H_

#include <map>
#include <vector>

#include "src/common/time.h"
#include "src/rt/periodic_task.h"

namespace tableau {

struct PartitionResult {
  // True if every task was assigned (unassigned is empty).
  bool complete = false;
  // Per-core task assignments, size == num_cores.
  std::vector<std::vector<PeriodicTask>> core_tasks;
  // Tasks that fit on no single core, in worst-fit-decreasing order.
  std::vector<PeriodicTask> unassigned;
};

// Partitions implicit-deadline tasks onto `num_cores` cores using worst-fit
// decreasing. All task periods must divide `hyperperiod`.
PartitionResult WorstFitDecreasing(const std::vector<PeriodicTask>& tasks, int num_cores,
                                   TimeNs hyperperiod);

// NUMA-aware variant: `socket_of` maps a vCPU id to its required socket (-1
// or absent = anywhere), and cores [s*cores_per_socket, (s+1)*cores_per_socket)
// belong to socket s. Constrained tasks only consider cores of their socket.
PartitionResult WorstFitDecreasingNuma(const std::vector<PeriodicTask>& tasks,
                                       const std::map<VcpuId, int>& socket_of,
                                       int num_cores, int cores_per_socket,
                                       TimeNs hyperperiod);

// One worst-fit placement decision, the per-task step of
// WorstFitDecreasingNuma (delta solves call it directly): the core with the
// least `load` (ns per hyperperiod) that can take `demand` more, lowest index
// on ties, or -1 if none fits. `socket` >= 0 restricts the scan to cores
// [socket*cores_per_socket, (socket+1)*cores_per_socket), clamped to the
// machine; -1 scans every core.
int WorstFitCore(const std::vector<TimeNs>& load, TimeNs demand, int socket,
                 int cores_per_socket, TimeNs hyperperiod);

// Remaining capacity (ns per hyperperiod) of a core's current assignment.
TimeNs SpareCapacity(const std::vector<PeriodicTask>& core_tasks, TimeNs hyperperiod);

}  // namespace tableau

#endif  // SRC_RT_PARTITION_H_
