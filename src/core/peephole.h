// Peephole table optimization (Sec. 5, "Post-processing": "one might add a
// 'peep-hole' optimization pass to reduce the number of migrations and
// preemptions even further" — left as future work in the paper, implemented
// here).
//
// Within one core's allocation list, EDF simulation can leave a task's job
// served in multiple fragments with other tasks sandwiched between them
// (each fragment boundary is a preemption and a pair of context switches at
// runtime). The pass looks for contiguous A-B-A windows and reorders them to
// A-A-B or B-A-A whenever every moved piece stays inside the period window
// of the job it serves — which preserves, exactly, the per-window service
// guarantee (each job still receives its full budget between release and
// deadline) and therefore the utilization and blackout bounds.
//
// Cores hosting C=D subtasks (offset or constrained-deadline pieces) are
// left untouched: their zero-laxity windows admit no reordering.
#ifndef SRC_CORE_PEEPHOLE_H_
#define SRC_CORE_PEEPHOLE_H_

#include <vector>

#include "src/common/time.h"
#include "src/core/core_tasks.h"
#include "src/rt/edf_sim.h"
#include "src/rt/periodic_task.h"

namespace tableau {

struct PeepholeStats {
  int allocations_before = 0;
  int allocations_after = 0;
  int swaps = 0;

  int PreemptionsRemoved() const { return allocations_before - allocations_after; }
};

// Optimizes one core's allocation list in place. `tasks` is the core's task
// assignment (used for period-window safety checks); tasks not found default
// to unmovable. Returns the collected statistics.
PeepholeStats PeepholeOptimizeCore(std::vector<Allocation>& allocations,
                                   const std::vector<PeriodicTask>& tasks);

// Convenience: runs the pass over every core. Cores with split pieces are
// skipped.
PeepholeStats PeepholeOptimize(std::vector<std::vector<Allocation>>& per_core,
                               const CoreTasks& core_tasks);

// Exact service check used by the optimizer and its tests: true iff every
// task receives exactly `cost` service inside each of its period windows.
bool ServicePerWindowPreserved(const std::vector<Allocation>& allocations,
                               const std::vector<PeriodicTask>& tasks, TimeNs hyperperiod);

}  // namespace tableau

#endif  // SRC_CORE_PEEPHOLE_H_
