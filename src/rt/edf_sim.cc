#include "src/rt/edf_sim.h"

#include <algorithm>

#include "src/common/check.h"

namespace tableau {
namespace {

// A task's next unreleased job. Each task's jobs release in order, so a
// min-heap of these yields every job in release order without sorting.
struct ReleaseCursor {
  TimeNs release;
  std::size_t task;
};

// Min-heap order on (release, task index). The heap comparators are
// function objects, so the std heap algorithms inline them.
struct ReleasesLater {
  bool operator()(const ReleaseCursor& a, const ReleaseCursor& b) const {
    return a.release != b.release ? a.release > b.release : a.task > b.task;
  }
};

// A released job. Keys are immutable over the job's lifetime, so the heap
// stays consistent while `remaining` is decremented in place.
struct ReadyJob {
  TimeNs deadline;
  TimeNs laxity;  // D - C at release; 0 for C=D subtasks.
  VcpuId vcpu;
  std::size_t seq;  // Release order, the last tie-break.
  TimeNs remaining;
};

// Max-heap comparator for earliest-deadline-first with smaller laxity and
// then smaller vCPU id breaking ties. Jobs of distinct tasks tie on all
// three only if the tasks share a vCPU id, which the planner never puts on
// one core.
struct RunsLater {
  bool operator()(const ReadyJob& a, const ReadyJob& b) const {
    if (a.deadline != b.deadline) return a.deadline > b.deadline;
    if (a.laxity != b.laxity) return a.laxity > b.laxity;
    if (a.vcpu != b.vcpu) return a.vcpu > b.vcpu;
    return a.seq > b.seq;
  }
};

EdfSimResult Simulate(const std::vector<PeriodicTask>& tasks, TimeNs hyperperiod,
                      bool record_allocations) {
  EdfSimResult result;

  std::vector<ReleaseCursor> releases;
  releases.reserve(tasks.size());
  std::size_t num_jobs = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const PeriodicTask& task = tasks[i];
    TABLEAU_CHECK_MSG(task.period > 0 && hyperperiod % task.period == 0,
                      "task period %lld must divide hyperperiod %lld",
                      static_cast<long long>(task.period),
                      static_cast<long long>(hyperperiod));
    TABLEAU_CHECK(task.cost > 0 && task.cost <= task.deadline);
    TABLEAU_CHECK(task.offset >= 0 && task.offset + task.deadline <= task.period);
    releases.push_back(ReleaseCursor{task.offset, i});
    num_jobs += static_cast<std::size_t>(hyperperiod / task.period);
  }
  std::make_heap(releases.begin(), releases.end(), ReleasesLater{});
  // Every recorded piece ends at a job's completion or at a release, so
  // there are at most 2 * jobs of them. A task has more than one job ready
  // only once one of them is late.
  if (record_allocations) {
    result.allocations.reserve(2 * num_jobs);
  }
  std::vector<ReadyJob> ready;
  ready.reserve(tasks.size());
  std::size_t released = 0;
  TimeNs now = 0;

  const auto next_release = [&] {
    return releases.empty() ? kTimeNever : releases.front().release;
  };
  // Job k of a task releases at k * T + offset, which stays below the
  // hyperperiod exactly while k < H / T.
  const auto release_up_to = [&](TimeNs t) {
    while (!releases.empty() && releases.front().release <= t) {
      std::pop_heap(releases.begin(), releases.end(), ReleasesLater{});
      ReleaseCursor& cursor = releases.back();
      const PeriodicTask& task = tasks[cursor.task];
      ready.push_back(ReadyJob{cursor.release + task.deadline, task.deadline - task.cost,
                               task.vcpu, released++, task.cost});
      std::push_heap(ready.begin(), ready.end(), RunsLater{});
      cursor.release += task.period;
      if (cursor.release < hyperperiod) {
        std::push_heap(releases.begin(), releases.end(), ReleasesLater{});
      } else {
        releases.pop_back();
      }
    }
  };

  auto record = [&](VcpuId vcpu, TimeNs start, TimeNs end) {
    if (!record_allocations || start == end) {
      return;
    }
    if (!result.allocations.empty() && result.allocations.back().vcpu == vcpu &&
        result.allocations.back().end == start) {
      result.allocations.back().end = end;
    } else {
      result.allocations.push_back(Allocation{vcpu, start, end});
    }
  };

  release_up_to(now);
  while (now < hyperperiod) {
    if (ready.empty()) {
      if (releases.empty()) {
        break;  // No more work: the rest of the table is idle.
      }
      now = next_release();
      release_up_to(now);
      continue;
    }
    ReadyJob& job = ready.front();
    const TimeNs run_until = std::min(now + job.remaining, next_release());
    record(job.vcpu, now, run_until);
    job.remaining -= run_until - now;
    now = run_until;
    if (job.remaining == 0) {
      const VcpuId vcpu = job.vcpu;
      const TimeNs deadline = job.deadline;
      std::pop_heap(ready.begin(), ready.end(), RunsLater{});
      ready.pop_back();
      if (now > deadline) {
        result.schedulable = false;
        result.missed_vcpu = vcpu;
        result.missed_deadline = deadline;
        return result;
      }
    }
    release_up_to(now);
  }

  // Cyclicity requires all work released in [0, H) to be complete by H.
  if (!ready.empty()) {
    result.schedulable = false;
    result.missed_vcpu = ready.front().vcpu;
    result.missed_deadline = ready.front().deadline;
    return result;
  }
  result.schedulable = true;
  return result;
}

}  // namespace

EdfSimResult SimulateEdf(const std::vector<PeriodicTask>& tasks, TimeNs hyperperiod) {
  return Simulate(tasks, hyperperiod, /*record_allocations=*/true);
}

bool EdfSchedulable(const std::vector<PeriodicTask>& tasks, TimeNs hyperperiod) {
  return Simulate(tasks, hyperperiod, /*record_allocations=*/false).schedulable;
}

}  // namespace tableau
