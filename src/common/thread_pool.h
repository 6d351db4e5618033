// A small fixed-size worker pool with a blocking data-parallel primitive.
// Two callers use it: ShardedSimulation's parallel barrier (one contiguous
// range of fleet hosts per index) and bench::RunSimulations (one independent
// measurement cell per index).
//
// Design constraints, in order:
//   1. Determinism: ParallelFor indexes work by position, so callers that
//      write results into per-index slots get output independent of thread
//      interleaving.
//   2. No deadlocks: the calling thread participates in the loop it issued,
//      so every ParallelFor completes even if no worker ever picks it up
//      (e.g. a pool constructed with 1 thread spawns no workers at all).
//   3. Concurrent callers: several threads may issue ParallelFor on the same
//      pool simultaneously; jobs are queued and drained cooperatively.
//   4. Cheap hand-off: submitting a job wakes only as many workers as there
//      are indices left after the caller takes one — a loop with fewer
//      indices than workers never pays a full notify_all broadcast, and a
//      single-index loop runs inline with no locking at all.
#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
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

  // Runs fn(i) exactly once for every i in [0, n), handing indices one at a
  // time to the workers and the calling thread, and returns when all n calls
  // have finished. fn must be safe to invoke concurrently for distinct
  // indices and must not throw (invariant violations abort via
  // TABLEAU_CHECK).
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};  // Completed indices; finished at n.
    std::mutex mu;
    std::condition_variable cv;  // Signaled when done reaches n.
  };

  // Claims and runs indices of `job` until none remain.
  void RunJob(Job& job);
  void WorkerLoop();

  const int num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool shutdown_ = false;
};

// Runs fn(i) for i in [0, n) inline when pool is null, otherwise delegates to
// the pool. Lets call sites stay agnostic of whether parallelism is
// configured.
void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

}  // namespace tableau

#endif  // SRC_COMMON_THREAD_POOL_H_
