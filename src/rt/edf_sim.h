// Uniprocessor EDF schedule simulation over one hyperperiod.
//
// The planner turns each core's task set into a concrete scheduling table by
// simulating an earliest-deadline-first schedule from time 0 to the
// hyperperiod H (Sec. 5, "Partitioning"). Because EDF is optimal on a
// uniprocessor and all periods divide H, a simulation in which every job
// meets its deadline and all work finishes by H yields a valid cyclic table.
//
// The simulator supports release offsets and constrained deadlines, which are
// required for C=D semi-partitioned subtasks: a zero-laxity subtask (D == C)
// that meets its deadline necessarily ran contiguously from its release, so
// a successful simulation also certifies that split pieces never overlap in
// time across cores.
#ifndef SRC_RT_EDF_SIM_H_
#define SRC_RT_EDF_SIM_H_

#include <vector>

#include "src/common/time.h"
#include "src/rt/periodic_task.h"

namespace tableau {

// One contiguous interval of a core's table, reserved for a vCPU.
struct Allocation {
  VcpuId vcpu = kIdleVcpu;
  TimeNs start = 0;
  TimeNs end = 0;

  TimeNs Length() const { return end - start; }
  bool operator==(const Allocation&) const = default;
};

struct EdfSimResult {
  bool schedulable = false;
  // Non-overlapping, time-ordered allocations covering [0, hyperperiod) with
  // idle gaps omitted. Adjacent allocations of the same vCPU are merged.
  std::vector<Allocation> allocations;
  // For diagnostics: the vCPU and absolute deadline of the first miss.
  VcpuId missed_vcpu = kIdleVcpu;
  TimeNs missed_deadline = 0;
};

// Simulates EDF over [0, hyperperiod) for the given tasks. Every task's
// period must divide `hyperperiod`, its offset satisfy
// 0 <= offset, and offset + deadline <= period (so all jobs complete within
// their own period window and the schedule is cyclic).
//
// Ties on absolute deadline are broken in favor of smaller laxity (D - C),
// then smaller vCPU id, so zero-laxity C=D subtasks always win ties and run
// contiguously; jobs of two tasks of one vCPU then go in release order.
// Each task's jobs are merged in release order from a heap of per-task
// cursors, O(jobs * log tasks).
EdfSimResult SimulateEdf(const std::vector<PeriodicTask>& tasks, TimeNs hyperperiod);

// Quick exact schedulability test: runs the simulation and reports success
// without materializing allocations (cheaper for binary searches).
bool EdfSchedulable(const std::vector<PeriodicTask>& tasks, TimeNs hyperperiod);

}  // namespace tableau

#endif  // SRC_RT_EDF_SIM_H_
