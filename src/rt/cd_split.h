// C=D semi-partitioning (Burns et al., "Partitioned EDF Scheduling for
// Multiprocessors Using a C=D Task Splitting Scheme"; paper Sec. 5,
// "Semi-partitioning").
//
// A task that fits on no single core is broken into subtasks with precedence
// constraints. All subtasks except the last are *zero-laxity* pieces
// (deadline == cost): a zero-laxity piece that meets its deadline necessarily
// executes contiguously in [k*T + offset, k*T + offset + C), so consecutive
// pieces occupy disjoint windows and never run in parallel even though they
// live on different cores. The final piece carries the leftover budget with
// deadline T - offset, and is scheduled by plain EDF on its host core.
//
// The largest schedulable zero-laxity budget on a core is found by binary
// search over multiples of the allocation granularity. Each probe's
// schedulability question goes through the analytic admission ladder
// (src/rt/admission.h) — utilization, density, then QPA — and only falls
// back to the exact EDF table simulation when the cheap tests are
// inconclusive; the verdict is identical either way, so the chosen split is
// exactly the one a simulation-only search would pick.
#ifndef SRC_RT_CD_SPLIT_H_
#define SRC_RT_CD_SPLIT_H_

#include <vector>

#include "src/common/time.h"
#include "src/rt/admission.h"
#include "src/rt/periodic_task.h"

namespace tableau {

struct SemiPartitionResult {
  // True if every task was placed (possibly split).
  bool complete = false;
  std::vector<std::vector<PeriodicTask>> core_tasks;
  // Tasks that could not be placed even with splitting (cluster-stage input).
  std::vector<PeriodicTask> unassigned;
  // Number of tasks that required splitting.
  int num_split_tasks = 0;
};

// Attempts to place `task` (implicit-deadline, offset 0) into the per-core
// assignment by C=D splitting, modifying `core_tasks` on success. Each core
// hosts at most one piece of the task. `granularity` is the minimum piece
// size (the paper's 100 us enforceability threshold). A non-null `tally`
// counts which admission rung decided each probe.
bool CdSplitTask(const PeriodicTask& task, std::vector<std::vector<PeriodicTask>>& core_tasks,
                 TimeNs hyperperiod, TimeNs granularity, AdmissionTally* tally = nullptr);

// Full semi-partitioning pipeline: worst-fit-decreasing partitioning followed
// by C=D splitting of the leftovers.
SemiPartitionResult SemiPartition(const std::vector<PeriodicTask>& tasks, int num_cores,
                                  TimeNs hyperperiod, TimeNs granularity,
                                  AdmissionTally* tally = nullptr);

}  // namespace tableau

#endif  // SRC_RT_CD_SPLIT_H_
