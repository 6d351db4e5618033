#include "src/common/thread_pool.h"

#include <algorithm>

namespace tableau {

ThreadPool::ThreadPool(int num_threads) : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int t = 0; t < num_threads_ - 1; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::RunJob(Job& job) {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) {
      return;
    }
    (*job.fn)(i);
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.n) {
      // Lock-then-notify pairs with the caller's predicate re-check, so the
      // final wakeup cannot be lost between its check and its wait.
      std::lock_guard<std::mutex> lock(job.mu);
      job.cv.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !jobs_.empty(); });
      if (shutdown_) {
        return;  // Callers block until their jobs finish, so none are live.
      }
      job = jobs_.front();
      if (job->next.load(std::memory_order_relaxed) >= job->n) {
        // Fully claimed: retire it so later jobs become visible.
        jobs_.pop_front();
        continue;
      }
    }
    RunJob(*job);
  }
}

void ThreadPool::ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (num_threads_ <= 1 || n <= 1) {
    // Run inline with no queue, lock, or wakeup.
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(job);
  }
  // The caller immediately claims one index itself, so at most n - 1 are
  // available for workers: wake exactly that many (saturated at the worker
  // count). A two-index loop wakes one worker, not the whole pool.
  const std::size_t idle_capacity = workers_.size();
  const std::size_t wakeups = std::min(idle_capacity, n - 1);
  if (wakeups >= idle_capacity) {
    work_cv_.notify_all();
  } else {
    for (std::size_t w = 0; w < wakeups; ++w) {
      work_cv_.notify_one();
    }
  }

  // The caller is an executor too: the loop always completes even if every
  // worker is busy with other jobs.
  RunJob(*job);
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->cv.wait(lock, [&] { return job->done.load(std::memory_order_acquire) == n; });
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find(jobs_.begin(), jobs_.end(), job);
    if (it != jobs_.end()) {
      jobs_.erase(it);
    }
  }
}

void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  pool->ParallelFor(n, fn);
}

}  // namespace tableau
