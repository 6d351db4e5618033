#include "src/rt/hyperperiod.h"

#include <cmath>

#include "src/common/math_util.h"

namespace tableau {

const std::vector<TimeNs>& CandidatePeriods() {
  static const std::vector<TimeNs> kPeriods = DivisorsAtLeast(kHyperperiodNs, kMinPeriodNs);
  return kPeriods;
}

std::optional<TaskMapping> MapRequestToTask(const VcpuRequest& request) {
  if (!(request.utilization > 0.0 && request.utilization < 1.0) ||
      request.latency_goal <= 0) {
    return std::nullopt;
  }
  const double u = request.utilization;
  const std::vector<TimeNs>& candidates = CandidatePeriods();

  TaskMapping mapping;
  mapping.latency_goal_met = false;
  TimeNs chosen = 0;
  // Candidates are in descending order; pick the first (largest) period whose
  // blackout bound 2*(1-U)*T fits within the latency goal.
  for (const TimeNs t : candidates) {
    const double blackout = 2.0 * (1.0 - u) * static_cast<double>(t);
    if (blackout <= static_cast<double>(request.latency_goal)) {
      chosen = t;
      mapping.latency_goal_met = true;
      break;
    }
  }
  if (chosen == 0) {
    // Latency goal unachievable with enforceable periods; fall back to the
    // smallest candidate period (best effort).
    chosen = candidates.back();
  }

  TimeNs cost = static_cast<TimeNs>(std::ceil(u * static_cast<double>(chosen)));
  if (cost >= chosen) {
    cost = chosen - 1;  // Keep U < 1 on a shared core; U == 1 is handled by the caller.
  }
  if (cost <= 0) {
    cost = 1;
  }
  mapping.task = PeriodicTask::Implicit(request.vcpu, cost, chosen);
  mapping.blackout_bound = 2 * (chosen - cost);
  if (mapping.blackout_bound > request.latency_goal) {
    mapping.latency_goal_met = false;
  }
  return mapping;
}

TimeNs TotalDemand(const std::vector<PeriodicTask>& tasks, TimeNs hyperperiod) {
  TimeNs total = 0;
  for (const PeriodicTask& t : tasks) {
    total += t.DemandPerHyperperiod(hyperperiod);
  }
  return total;
}

}  // namespace tableau
