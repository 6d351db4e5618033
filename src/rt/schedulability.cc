#include "src/rt/schedulability.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/math_util.h"

namespace tableau {

TimeNs DemandBound(const std::vector<PeriodicTask>& tasks, TimeNs t) {
  // Saturating accumulation: with large analysis intervals and many tasks the
  // exact demand can exceed 2^63 ns. Saturation keeps the comparison
  // `demand > t` correct (a saturated demand always exceeds any t), whereas
  // wraparound would report a tiny or negative demand and wrongly admit.
  TimeNs demand = 0;
  for (const PeriodicTask& task : tasks) {
    if (t >= task.deadline) {
      const TimeNs jobs = (t - task.deadline) / task.period + 1;
      demand = SatAdd(demand, SatMul(jobs, task.cost));
    }
  }
  return demand;
}

namespace {

// Largest absolute deadline strictly smaller than `t` under synchronous
// release, or 0 if none.
TimeNs LastDeadlineBefore(const std::vector<PeriodicTask>& tasks, TimeNs t) {
  TimeNs best = 0;
  for (const PeriodicTask& task : tasks) {
    if (task.deadline >= t) {
      continue;
    }
    // Deadlines are task.deadline + k * task.period; the largest below t:
    const TimeNs k = (t - 1 - task.deadline) / task.period;
    best = std::max(best, task.deadline + k * task.period);
  }
  return best;
}

}  // namespace

bool QpaSchedulable(const std::vector<PeriodicTask>& tasks, TimeNs hyperperiod) {
  if (tasks.empty()) {
    return true;
  }
  TimeNs total = 0;
  TimeNs min_deadline = kTimeNever;
  for (const PeriodicTask& task : tasks) {
    TABLEAU_CHECK(hyperperiod % task.period == 0);
    total = SatAdd(total, SatMul(task.cost, hyperperiod / task.period));
    min_deadline = std::min(min_deadline, task.deadline);
  }
  if (total > hyperperiod) {
    return false;
  }
  // Since every period divides the hyperperiod and total demand fits in it,
  // the hyperperiod bounds the analysis interval.
  TimeNs t = LastDeadlineBefore(
      tasks, hyperperiod < kTimeNever ? hyperperiod + 1 : kTimeNever);
  while (t > min_deadline) {
    const TimeNs demand = DemandBound(tasks, t);
    if (demand > t) {
      return false;
    }
    t = demand < t ? demand : LastDeadlineBefore(tasks, t);
  }
  return DemandBound(tasks, min_deadline) <= min_deadline;
}

}  // namespace tableau
