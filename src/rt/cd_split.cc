#include "src/rt/cd_split.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/rt/edf_sim.h"
#include "src/rt/partition.h"

namespace tableau {
namespace {

// Cores ordered by spare capacity, largest first, excluding `used`.
std::vector<int> CoresBySpareCapacity(const std::vector<std::vector<PeriodicTask>>& core_tasks,
                                      TimeNs hyperperiod, const std::vector<bool>& used) {
  std::vector<int> cores;
  for (int c = 0; c < static_cast<int>(core_tasks.size()); ++c) {
    if (!used[static_cast<std::size_t>(c)]) {
      cores.push_back(c);
    }
  }
  std::vector<TimeNs> spare(core_tasks.size());
  for (std::size_t c = 0; c < core_tasks.size(); ++c) {
    spare[c] = SpareCapacity(core_tasks[c], hyperperiod);
  }
  std::sort(cores.begin(), cores.end(), [&](int a, int b) {
    const TimeNs sa = spare[static_cast<std::size_t>(a)];
    const TimeNs sb = spare[static_cast<std::size_t>(b)];
    if (sa != sb) return sa > sb;
    return a < b;
  });
  return cores;
}

// One schedulability probe of the split search: does `piece` fit on a core
// with `core_tasks`? Decided by the analytic admission ladder when possible,
// by exact EDF simulation otherwise — the verdict is identical either way.
bool PieceSchedulable(const std::vector<PeriodicTask>& core_tasks, const PeriodicTask& piece,
                      TimeNs hyperperiod, AdmissionTally* tally) {
  std::vector<PeriodicTask> with_piece = core_tasks;
  with_piece.push_back(piece);
  return AdmitCore(with_piece, hyperperiod, tally).schedulable;
}

}  // namespace

bool CdSplitTask(const PeriodicTask& task, std::vector<std::vector<PeriodicTask>>& core_tasks,
                 TimeNs hyperperiod, TimeNs granularity, AdmissionTally* tally) {
  TABLEAU_CHECK(task.offset == 0 && task.deadline == task.period);
  TABLEAU_CHECK(granularity > 0);

  const int num_cores = static_cast<int>(core_tasks.size());
  std::vector<bool> used(static_cast<std::size_t>(num_cores), false);

  // Tentative assignment; only committed on success.
  std::vector<std::vector<PeriodicTask>> tentative = core_tasks;

  TimeNs remaining = task.cost;
  TimeNs offset = 0;
  int pieces = 0;

  while (remaining > 0 && pieces < num_cores) {
    const std::vector<int> order = CoresBySpareCapacity(tentative, hyperperiod, used);
    if (order.empty()) {
      return false;
    }

    // First preference: place the entire remainder as the final piece with
    // deadline T - offset on the first core in `order` that can take it
    // (cost <= deadline always holds: offset + remaining <= T).
    PeriodicTask final_piece = task;
    final_piece.cost = remaining;
    final_piece.offset = offset;
    final_piece.deadline = task.period - offset;
    const auto fits = std::find_if(order.begin(), order.end(), [&](int core) {
      return PieceSchedulable(tentative[static_cast<std::size_t>(core)], final_piece,
                              hyperperiod, tally);
    });
    if (fits != order.end()) {
      tentative[static_cast<std::size_t>(*fits)].push_back(final_piece);
      remaining = 0;
      break;
    }

    // Otherwise carve the largest schedulable zero-laxity piece out of the
    // core with the most spare capacity.
    const int core = order.front();
    const auto c = static_cast<std::size_t>(core);
    // Candidate budgets are multiples of the granularity, capped so that a
    // non-zero remainder keeps at least one granule for the final piece.
    const TimeNs max_whole = remaining;
    const TimeNs max_partial = remaining - granularity;
    TimeNs lo = granularity;          // Smallest useful piece.
    TimeNs hi = max_whole;            // Inclusive upper bound.
    if (lo > hi) {
      return false;                   // Remainder smaller than one granule.
    }

    auto zero_laxity_ok = [&](TimeNs budget) {
      PeriodicTask piece = task;
      piece.cost = budget;
      piece.offset = offset;
      piece.deadline = budget;
      if (piece.offset + piece.deadline > piece.period) {
        return false;
      }
      return PieceSchedulable(tentative[c], piece, hyperperiod, tally);
    };

    if (!zero_laxity_ok(lo)) {
      return false;  // Even the smallest piece does not fit: give up.
    }
    // Binary search the largest schedulable budget over granules.
    TimeNs best = lo;
    TimeNs lo_k = 1;
    TimeNs hi_k = (hi + granularity - 1) / granularity;
    while (lo_k <= hi_k) {
      const TimeNs mid_k = lo_k + (hi_k - lo_k) / 2;
      const TimeNs budget = std::min(mid_k * granularity, hi);
      if (zero_laxity_ok(budget)) {
        best = budget;
        lo_k = mid_k + 1;
      } else {
        hi_k = mid_k - 1;
      }
    }
    // Avoid leaving a sub-granule remainder.
    if (best < max_whole && best > max_partial) {
      best = max_partial;
      if (best < granularity) {
        return false;
      }
    }

    PeriodicTask piece = task;
    piece.cost = best;
    piece.offset = offset;
    piece.deadline = best;
    tentative[c].push_back(piece);
    used[c] = true;
    offset += best;
    remaining -= best;
    ++pieces;
  }

  if (remaining > 0) {
    return false;
  }
  core_tasks = std::move(tentative);
  return true;
}

SemiPartitionResult SemiPartition(const std::vector<PeriodicTask>& tasks, int num_cores,
                                  TimeNs hyperperiod, TimeNs granularity,
                                  AdmissionTally* tally) {
  SemiPartitionResult result;
  PartitionResult partition = WorstFitDecreasing(tasks, num_cores, hyperperiod);
  result.core_tasks = std::move(partition.core_tasks);
  for (const PeriodicTask& task : partition.unassigned) {
    if (CdSplitTask(task, result.core_tasks, hyperperiod, granularity, tally)) {
      ++result.num_split_tasks;
    } else {
      result.unassigned.push_back(task);
    }
  }
  result.complete = result.unassigned.empty();
  return result;
}

}  // namespace tableau
