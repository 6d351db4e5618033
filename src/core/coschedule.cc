#include "src/core/coschedule.h"

#include <algorithm>
#include <map>

#include "src/common/check.h"

namespace tableau {
namespace {

TimeNs IntervalOverlap(TimeNs a_start, TimeNs a_end, TimeNs b_start, TimeNs b_end) {
  const TimeNs lo = std::max(a_start, b_start);
  const TimeNs hi = std::min(a_end, b_end);
  return hi > lo ? hi - lo : 0;
}

// Overlap of [start, end) with all of `vcpu`'s allocations anywhere.
TimeNs OverlapWithVcpu(const std::vector<std::vector<Allocation>>& per_core,
                       TimeNs start, TimeNs end, VcpuId vcpu) {
  TimeNs overlap = 0;
  for (const auto& core : per_core) {
    for (const Allocation& alloc : core) {
      if (alloc.vcpu == vcpu) {
        overlap += IntervalOverlap(start, end, alloc.start, alloc.end);
      }
    }
  }
  return overlap;
}

// Computes the legal slide range of allocation `index` on `core`: bounded by
// the neighbouring allocations (idle slack) and by the period window of the
// job the allocation serves. Returns false if the allocation may not move.
bool SlideRange(const std::vector<Allocation>& core,
                const std::map<VcpuId, const PeriodicTask*>& tasks, std::size_t index,
                TimeNs table_length, TimeNs* lo, TimeNs* hi) {
  const Allocation& alloc = core[index];
  const auto it = tasks.find(alloc.vcpu);
  if (it == tasks.end()) {
    return false;
  }
  const PeriodicTask& task = *it->second;
  const TimeNs window = alloc.start / task.period;
  if ((alloc.end - 1) / task.period != window) {
    return false;  // Spans a period boundary (merged jobs): pinned.
  }
  const TimeNs window_lo = window * task.period;
  const TimeNs window_hi = (window + 1) * task.period;
  const TimeNs prev_end = index == 0 ? 0 : core[index - 1].end;
  const TimeNs next_start = index + 1 < core.size() ? core[index + 1].start : table_length;
  *lo = std::max(window_lo, prev_end);
  *hi = std::min(window_hi, next_start) - alloc.Length();
  return *hi >= *lo;
}

}  // namespace

TimeNs PairOverlapNs(const std::vector<std::vector<Allocation>>& per_core, VcpuId a,
                     VcpuId b) {
  TimeNs overlap = 0;
  for (const auto& core : per_core) {
    for (const Allocation& alloc : core) {
      if (alloc.vcpu == a) {
        overlap += OverlapWithVcpu(per_core, alloc.start, alloc.end, b);
      }
    }
  }
  return overlap;
}

CoscheduleStats CoschedulePass(std::vector<std::vector<Allocation>>& per_core,
                               const CoreTasks& core_tasks,
                               const std::vector<CoscheduleHint>& hints,
                               TimeNs table_length) {
  CoscheduleStats stats;
  // Window metadata, per core; cores with split pieces are ineligible.
  std::vector<std::map<VcpuId, const PeriodicTask*>> tasks_by_core(per_core.size());
  std::vector<bool> eligible(per_core.size(), false);
  for (std::size_t c = 0; c < per_core.size() && c < core_tasks.size(); ++c) {
    bool ok = true;
    for (const PeriodicTask& task : core_tasks[c]) {
      if (task.offset != 0 || task.deadline != task.period ||
          tasks_by_core[c].count(task.vcpu) > 0) {
        ok = false;
        break;
      }
      tasks_by_core[c][task.vcpu] = &task;
    }
    eligible[c] = ok && !core_tasks[c].empty();
  }

  for (const CoscheduleHint& hint : hints) {
    stats.overlap_before += PairOverlapNs(per_core, hint.a, hint.b);
  }

  bool improved = true;
  int rounds = 0;
  while (improved && rounds++ < 16) {
    improved = false;
    for (const CoscheduleHint& hint : hints) {
      const bool avoid = hint.preference == CoschedulePreference::kAvoid;
      for (std::size_t c = 0; c < per_core.size(); ++c) {
        if (!eligible[c]) {
          continue;
        }
        auto& core = per_core[c];
        for (std::size_t i = 0; i < core.size(); ++i) {
          Allocation& alloc = core[i];
          VcpuId partner;
          if (alloc.vcpu == hint.a) {
            partner = hint.b;
          } else if (alloc.vcpu == hint.b) {
            partner = hint.a;
          } else {
            continue;
          }
          TimeNs lo = 0;
          TimeNs hi = 0;
          if (!SlideRange(core, tasks_by_core[c], i, table_length, &lo, &hi)) {
            continue;
          }
          const TimeNs len = alloc.Length();
          const TimeNs current =
              OverlapWithVcpu(per_core, alloc.start, alloc.end, partner);
          // Candidate positions: the two extremes of the legal range plus
          // the current position; pick the best under the hint's objective.
          TimeNs best_start = alloc.start;
          TimeNs best_overlap = current;
          for (const TimeNs candidate : {lo, hi}) {
            const TimeNs overlap =
                OverlapWithVcpu(per_core, candidate, candidate + len, partner);
            const bool better = avoid ? overlap < best_overlap : overlap > best_overlap;
            if (better) {
              best_overlap = overlap;
              best_start = candidate;
            }
          }
          if (best_start != alloc.start) {
            alloc.start = best_start;
            alloc.end = best_start + len;
            ++stats.moves;
            improved = true;
          }
        }
      }
    }
  }

  for (const CoscheduleHint& hint : hints) {
    stats.overlap_after += PairOverlapNs(per_core, hint.a, hint.b);
  }
  return stats;
}

}  // namespace tableau
