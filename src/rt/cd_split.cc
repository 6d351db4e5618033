#include "src/rt/cd_split.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
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

// How many levels of the bisection tree to evaluate speculatively per round:
// the largest d with 2^d - 1 probes <= the pool's thread count. 1 (plain
// bisection) when serial.
int SpeculationDepth(ThreadPool* pool) {
  const int threads = pool == nullptr ? 1 : pool->num_threads();
  int depth = 1;
  while (depth < 5 && (1 << (depth + 1)) - 1 <= threads) {
    ++depth;
  }
  return depth;
}

}  // namespace

bool CdSplitTask(const PeriodicTask& task, std::vector<std::vector<PeriodicTask>>& core_tasks,
                 TimeNs hyperperiod, TimeNs granularity, ThreadPool* pool,
                 AdmissionTally* tally) {
  TABLEAU_CHECK(task.offset == 0 && task.deadline == task.period);
  TABLEAU_CHECK(granularity > 0);

  const int num_cores = static_cast<int>(core_tasks.size());
  std::vector<bool> used(static_cast<std::size_t>(num_cores), false);
  const std::size_t wave =
      pool != nullptr && pool->num_threads() > 1
          ? static_cast<std::size_t>(pool->num_threads())
          : 1;

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
    // deadline T - offset on any core that can take it. Cores are probed in
    // waves of the pool width; the first success in `order` wins, exactly as
    // in a serial scan.
    PeriodicTask final_piece = task;
    final_piece.cost = remaining;
    final_piece.offset = offset;
    final_piece.deadline = task.period - offset;
    bool placed_final = false;
    if (final_piece.cost <= final_piece.deadline) {  // Always true: off+rem <= T.
      std::vector<char> fits(wave, 0);
      for (std::size_t base = 0; base < order.size() && !placed_final; base += wave) {
        const std::size_t count = std::min(wave, order.size() - base);
        ParallelFor(pool, count, [&](std::size_t i) {
          const auto c = static_cast<std::size_t>(order[base + i]);
          fits[i] = PieceSchedulable(tentative[c], final_piece, hyperperiod, tally) ? 1 : 0;
        });
        for (std::size_t i = 0; i < count; ++i) {
          if (fits[i] != 0) {
            tentative[static_cast<std::size_t>(order[base + i])].push_back(final_piece);
            remaining = 0;
            placed_final = true;
            break;
          }
        }
      }
    }
    if (placed_final) {
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
    // Binary search the largest schedulable budget over granules. With a
    // pool, each round speculatively evaluates the probes of the next
    // `depth` bisection levels concurrently and then takes `depth` ordinary
    // bisection steps against the precomputed answers — the sequence of
    // consumed probes is exactly the serial one, so the chosen split point
    // is identical (no monotonicity assumption needed). depth == 1 is plain
    // binary search.
    const int depth = SpeculationDepth(pool);
    TimeNs best = lo;
    TimeNs lo_k = 1;
    TimeNs hi_k = (hi + granularity - 1) / granularity;
    while (lo_k <= hi_k) {
      std::vector<TimeNs> probe_ks;
      std::vector<std::pair<TimeNs, TimeNs>> frontier = {{lo_k, hi_k}};
      for (int level = 0; level < depth; ++level) {
        std::vector<std::pair<TimeNs, TimeNs>> next_frontier;
        for (const auto& [l, h] : frontier) {
          if (l > h) {
            continue;
          }
          const TimeNs m = l + (h - l) / 2;
          probe_ks.push_back(m);
          next_frontier.emplace_back(l, m - 1);
          next_frontier.emplace_back(m + 1, h);
        }
        frontier = std::move(next_frontier);
      }
      std::vector<char> probe_ok(probe_ks.size(), 0);
      ParallelFor(pool, probe_ks.size(), [&](std::size_t i) {
        probe_ok[i] = zero_laxity_ok(std::min(probe_ks[i] * granularity, hi)) ? 1 : 0;
      });
      std::map<TimeNs, bool> verdict;
      for (std::size_t i = 0; i < probe_ks.size(); ++i) {
        verdict[probe_ks[i]] = probe_ok[i] != 0;
      }
      for (int step = 0; step < depth && lo_k <= hi_k; ++step) {
        const TimeNs mid_k = lo_k + (hi_k - lo_k) / 2;
        const TimeNs budget = std::min(mid_k * granularity, hi);
        if (verdict.at(mid_k)) {
          best = budget;
          lo_k = mid_k + 1;
        } else {
          hi_k = mid_k - 1;
        }
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
                                  ThreadPool* pool, AdmissionTally* tally) {
  SemiPartitionResult result;
  PartitionResult partition = WorstFitDecreasing(tasks, num_cores, hyperperiod);
  result.core_tasks = std::move(partition.core_tasks);
  for (const PeriodicTask& task : partition.unassigned) {
    if (CdSplitTask(task, result.core_tasks, hyperperiod, granularity, pool, tally)) {
      ++result.num_split_tasks;
    } else {
      result.unassigned.push_back(task);
    }
  }
  result.complete = result.unassigned.empty();
  return result;
}

}  // namespace tableau
