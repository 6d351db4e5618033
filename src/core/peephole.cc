#include "src/core/peephole.h"

#include <algorithm>
#include <map>

#include "src/common/check.h"

namespace tableau {
namespace {

// True if an allocation of `task` moved to [start, end) would still lie
// within the same period window as it did at [orig_start, orig_end).
bool StaysInWindow(const PeriodicTask& task, TimeNs orig_start, TimeNs orig_end,
                   TimeNs start, TimeNs end) {
  const TimeNs window = orig_start / task.period;
  if ((orig_end - 1) / task.period != window) {
    return false;  // Boundary-spanning (merged across jobs): do not move.
  }
  return start >= window * task.period && end <= (window + 1) * task.period;
}

// Merges contiguous same-vCPU neighbours in place.
void MergeContiguous(std::vector<Allocation>& allocations) {
  std::vector<Allocation> merged;
  for (const Allocation& alloc : allocations) {
    if (!merged.empty() && merged.back().vcpu == alloc.vcpu &&
        merged.back().end == alloc.start) {
      merged.back().end = alloc.end;
    } else {
      merged.push_back(alloc);
    }
  }
  allocations = std::move(merged);
}

}  // namespace

PeepholeStats PeepholeOptimizeCore(std::vector<Allocation>& allocations,
                                   const std::vector<PeriodicTask>& tasks) {
  PeepholeStats stats;
  std::map<VcpuId, const PeriodicTask*> by_vcpu;
  for (const PeriodicTask& task : tasks) {
    // Multiple pieces of the same vCPU on one core would make the window
    // lookup ambiguous; callers exclude such cores.
    by_vcpu[task.vcpu] = &task;
  }

  std::sort(allocations.begin(), allocations.end(),
            [](const Allocation& a, const Allocation& b) { return a.start < b.start; });
  MergeContiguous(allocations);
  stats.allocations_before = static_cast<int>(allocations.size());

  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i + 2 < allocations.size(); ++i) {
      Allocation& first = allocations[i];
      Allocation& middle = allocations[i + 1];
      Allocation& last = allocations[i + 2];
      if (first.vcpu != last.vcpu || first.vcpu == middle.vcpu) {
        continue;
      }
      const auto outer_it = by_vcpu.find(first.vcpu);
      const auto middle_it = by_vcpu.find(middle.vcpu);
      if (outer_it == by_vcpu.end() || middle_it == by_vcpu.end()) {
        continue;
      }
      const PeriodicTask& outer = *outer_it->second;
      const PeriodicTask& inner = *middle_it->second;

      // Attempt A-B-A -> A-A-B: `last` slides left against `first`, `middle`
      // slides right to the end. Requires first/middle/last contiguity so no
      // idle time moves.
      if (first.end == middle.start && middle.end == last.start) {
        const TimeNs a2_start = first.end;
        const TimeNs a2_end = a2_start + last.Length();
        const TimeNs b_start = a2_end;
        const TimeNs b_end = b_start + middle.Length();
        if (StaysInWindow(outer, last.start, last.end, a2_start, a2_end) &&
            StaysInWindow(inner, middle.start, middle.end, b_start, b_end)) {
          const Allocation moved_a{last.vcpu, a2_start, a2_end};
          const Allocation moved_b{middle.vcpu, b_start, b_end};
          middle = moved_a;
          last = moved_b;
          ++stats.swaps;
          changed = true;
          continue;
        }
        // Attempt A-B-A -> B-A-A: `first` slides right, `middle` to front.
        const TimeNs b2_start = first.start;
        const TimeNs b2_end = b2_start + middle.Length();
        const TimeNs a1_start = b2_end;
        const TimeNs a1_end = a1_start + first.Length();
        if (StaysInWindow(outer, first.start, first.end, a1_start, a1_end) &&
            StaysInWindow(inner, middle.start, middle.end, b2_start, b2_end)) {
          const Allocation moved_b{middle.vcpu, b2_start, b2_end};
          const Allocation moved_a{first.vcpu, a1_start, a1_end};
          first = moved_b;
          middle = moved_a;
          ++stats.swaps;
          changed = true;
          continue;
        }
      }
    }
    if (changed) {
      MergeContiguous(allocations);
    }
  }
  stats.allocations_after = static_cast<int>(allocations.size());
  return stats;
}

PeepholeStats PeepholeOptimize(std::vector<std::vector<Allocation>>& per_core,
                               const CoreTasks& core_tasks) {
  PeepholeStats total;
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    if (c >= core_tasks.size()) {
      break;
    }
    if (per_core[c].empty()) {
      continue;  // Nothing to reorder (a delta solve's carried cores).
    }
    const std::vector<PeriodicTask>& tasks = core_tasks[c];
    // Skip cores hosting split pieces or duplicate-vCPU assignments.
    bool eligible = !tasks.empty();
    std::map<VcpuId, int> seen;
    for (const PeriodicTask& task : tasks) {
      if (task.offset != 0 || task.deadline != task.period || ++seen[task.vcpu] > 1) {
        eligible = false;
        break;
      }
    }
    if (!eligible) {
      continue;
    }
    const PeepholeStats stats = PeepholeOptimizeCore(per_core[c], tasks);
    total.allocations_before += stats.allocations_before;
    total.allocations_after += stats.allocations_after;
    total.swaps += stats.swaps;
  }
  return total;
}

bool ServicePerWindowPreserved(const std::vector<Allocation>& allocations,
                               const std::vector<PeriodicTask>& tasks,
                               TimeNs hyperperiod) {
  for (const PeriodicTask& task : tasks) {
    for (TimeNs window = 0; window < hyperperiod; window += task.period) {
      TimeNs served = 0;
      for (const Allocation& alloc : allocations) {
        if (alloc.vcpu != task.vcpu) {
          continue;
        }
        const TimeNs lo = std::max(alloc.start, window);
        const TimeNs hi = std::min(alloc.end, window + task.period);
        served += std::max<TimeNs>(0, hi - lo);
      }
      if (served != task.cost) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace tableau
