// A small fixed-size worker pool with a blocking data-parallel primitive,
// used by the planner to parallelize table generation (the control-plane
// critical path: Tableau replans on every VM arrival/departure).
//
// Design constraints, in order:
//   1. Determinism: ParallelFor indexes work by position, so callers that
//      write results into per-index slots get output independent of thread
//      interleaving. All planner uses follow this pattern, which is what
//      makes the parallel plan byte-identical to the serial one.
//   2. No deadlocks: the calling thread participates in the loop it issued,
//      so every ParallelFor completes even if no worker ever picks it up
//      (e.g. a pool constructed with 1 thread spawns no workers at all).
//   3. Concurrent callers: several threads may issue ParallelFor on the same
//      pool simultaneously (Planner::Solve is reentrant, and copies of a
//      planner share its pool); jobs are queued and drained cooperatively.
//   4. Cheap hand-off: indices are claimed in contiguous grains (not one by
//      one) and submitting a job wakes only as many workers as there are
//      grains left after the caller takes one — a loop with fewer grains
//      than workers never pays a full notify_all broadcast, and a
//      single-grain loop runs inline with no locking at all.
#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tableau {

class ThreadPool {
 public:
  // Spawns num_threads - 1 workers: the thread calling ParallelFor is the
  // remaining executor. num_threads <= 1 yields a pool that runs everything
  // inline in the caller.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs fn(i) exactly once for every i in [0, n), distributing indices over
  // the workers and the calling thread, and returns when all n calls have
  // finished. fn must be safe to invoke concurrently for distinct indices
  // and must not throw (invariant violations abort via TABLEAU_CHECK, same
  // as on the serial path).
  //
  // Indices are handed out in contiguous grains of `grain` indices each;
  // grain == 0 picks a coarse default (~4 grains per thread) that amortizes
  // claim and accounting costs for homogeneous loops. Pass grain == 1 when
  // the per-index work is heavy and heterogeneous (per-index stealing load
  // balance). The grain never affects the result, only scheduling.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                   std::size_t grain = 0);

  // Execution slot of the calling thread for this pool: workers return their
  // slot in [1, num_threads), every other thread 0. Nested ParallelFor calls
  // issued from a worker bill their inline work to that worker's slot.
  int CurrentSlot() const;

  // Cumulative per-execution-slot accounting: slot 0 is every non-worker
  // thread that called ParallelFor, slots 1..num_threads-1 are the pool
  // workers. `indices` counts loop indices executed by the slot, `busy_ns`
  // wall time spent inside fn (measured once per grain, not per index).
  // Observability only — reading races benignly with running jobs.
  struct Stats {
    std::vector<std::uint64_t> indices;
    std::vector<std::int64_t> busy_ns;
  };
  Stats GetStats() const;

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t grain = 1;
    std::size_t num_grains = 0;
    std::atomic<std::size_t> next_grain{0};
    std::atomic<std::size_t> done{0};  // Completed indices; finished at n.
    std::mutex mu;
    std::condition_variable cv;  // Signaled when done reaches n.
  };

  // Claims and runs whole grains of `job` until none remain, billing work to
  // `slot` (0 = a non-worker calling thread, 1.. = pool worker).
  void RunJob(Job& job, int slot);
  void WorkerLoop(int slot);

  const int num_threads_;
  // Indexed by execution slot; see Stats.
  std::vector<std::atomic<std::uint64_t>> slot_indices_;
  std::vector<std::atomic<std::int64_t>> slot_busy_ns_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool shutdown_ = false;
};

// Serial fallback helper: runs fn(i) for i in [0, n) inline when pool is
// null (or trivially sized), otherwise delegates to the pool. Lets call
// sites stay agnostic of whether parallelism is configured.
void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn, std::size_t grain = 0);

}  // namespace tableau

#endif  // SRC_COMMON_THREAD_POOL_H_
