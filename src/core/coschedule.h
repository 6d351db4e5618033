// Co-scheduling post-processing (Sec. 5, "Post-processing": "one might add a
// pass to encourage or discourage co-scheduling of certain VMs, e.g., due to
// performance-counter-based profiles or for synchronization purposes" —
// future work in the paper, implemented here).
//
// Given pairs of vCPUs with a preference (kAvoid: e.g. two cache-thrashing
// VMs that degrade each other when overlapping in time on different cores;
// kPrefer: e.g. gang-synchronized VMs), the pass slides allocations within
// idle gaps on their own cores — never outside the period window of the job
// they serve, so every utilization and blackout guarantee is preserved
// exactly — to minimize (or maximize) the pairwise temporal overlap.
#ifndef SRC_CORE_COSCHEDULE_H_
#define SRC_CORE_COSCHEDULE_H_

#include <vector>

#include "src/common/time.h"
#include "src/core/core_tasks.h"
#include "src/rt/edf_sim.h"
#include "src/rt/periodic_task.h"

namespace tableau {

enum class CoschedulePreference { kAvoid, kPrefer };

struct CoscheduleHint {
  VcpuId a = kIdleVcpu;
  VcpuId b = kIdleVcpu;
  CoschedulePreference preference = CoschedulePreference::kAvoid;
};

struct CoscheduleStats {
  TimeNs overlap_before = 0;
  TimeNs overlap_after = 0;
  int moves = 0;
};

// Total time (per hyperperiod) during which both vCPUs are scheduled
// simultaneously (on any cores).
TimeNs PairOverlapNs(const std::vector<std::vector<Allocation>>& per_core, VcpuId a,
                     VcpuId b);

// Greedy overlap optimization: repeatedly slides single allocations of the
// hinted vCPUs within the idle slack around them (bounded by their job's
// period window) while the hint's objective improves. `core_tasks` supplies
// the window metadata; cores hosting split pieces are skipped. Returns
// aggregate before/after overlap across all hints (kPrefer hints count
// negated improvement in `moves` only; overlap fields always report raw
// overlap sums).
CoscheduleStats CoschedulePass(std::vector<std::vector<Allocation>>& per_core,
                               const CoreTasks& core_tasks,
                               const std::vector<CoscheduleHint>& hints,
                               TimeNs table_length);

}  // namespace tableau

#endif  // SRC_CORE_COSCHEDULE_H_
