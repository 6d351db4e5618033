// Hyperperiod and candidate-period selection (Sec. 5, "Bounding table
// lengths").
//
// The paper fixes the maximum hyperperiod to 102,702,600 ns (~102 ms), chosen
// because it has many integer divisors above the 100 us enforceability
// threshold. Candidate periods are drawn from those divisors so that any mix
// of periods yields a table no longer than the hyperperiod.
#ifndef SRC_RT_HYPERPERIOD_H_
#define SRC_RT_HYPERPERIOD_H_

#include <optional>
#include <vector>

#include "src/common/time.h"
#include "src/rt/periodic_task.h"

namespace tableau {

// The paper's maximum hyperperiod: 102,702,600 ns.
inline constexpr TimeNs kHyperperiodNs = 102'702'600;

// Minimum enforceable period / allocation granularity: 100 us.
inline constexpr TimeNs kMinPeriodNs = 100 * kMicrosecond;

// Candidate periods: all divisors of kHyperperiodNs that are >= kMinPeriodNs,
// in descending order. Computed once on first use.
const std::vector<TimeNs>& CandidatePeriods();

// Result of mapping a (U, L) vCPU request onto a periodic task.
struct TaskMapping {
  PeriodicTask task;
  // 2 * (T - C): the worst-case blackout bound implied by the chosen (C, T).
  TimeNs blackout_bound = 0;
  // True if blackout_bound <= the requested latency goal. False when the goal
  // is too tight to honor with >= 100 us periods; the mapping is then the
  // best-effort smallest candidate period.
  bool latency_goal_met = false;
};

// Maps a vCPU request to a periodic task: the largest candidate period T with
// 2*(1-U)*T <= L, and budget C = ceil(U*T) (so the effective utilization is
// >= U). Requests with U >= 1 must be handled by the caller (dedicated core)
// and are rejected here. Returns std::nullopt for a non-positive or NaN U, or
// a non-positive L.
std::optional<TaskMapping> MapRequestToTask(const VcpuRequest& request);

}  // namespace tableau

#endif  // SRC_RT_HYPERPERIOD_H_
