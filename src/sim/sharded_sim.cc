#include "src/sim/sharded_sim.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/common/check.h"
#include "src/common/thread_pool.h"

namespace tableau {

ShardedSimulation::ShardedSimulation(std::vector<Simulation*> engines,
                                     const Options& options)
    : engines_(std::move(engines)) {
  TABLEAU_CHECK(!engines_.empty());
  if (options.parallel) {
    const int workers =
        options.num_threads > 0
            ? options.num_threads
            : std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    pool_ = std::make_unique<ThreadPool>(std::min(workers, num_shards()));
  }
}

ShardedSimulation::~ShardedSimulation() = default;

void ShardedSimulation::Post(int from_shard, int to_shard, TimeNs delay,
                             std::function<void()> fn) {
  TABLEAU_CHECK(from_shard >= 0 && from_shard < num_shards());
  TABLEAU_CHECK(to_shard >= 0 && to_shard < num_shards());
  TABLEAU_CHECK(delay >= 0);
  TABLEAU_CHECK_MSG(!running_, "Post is legal only between RunUntil calls");
  pending_.push_back(Message{barrier_ + delay, from_shard, to_shard, std::move(fn)});
}

void ShardedSimulation::RunUntil(TimeNs until) {
  TABLEAU_CHECK(until >= barrier_);
  // Every message was posted by this thread, so post order is deterministic
  // and a stable sort by (due, sender) fixes the target engines' arm order
  // among same-instant messages in every execution mode.
  std::stable_sort(pending_.begin(), pending_.end(),
                   [](const Message& a, const Message& b) {
                     if (a.due != b.due) return a.due < b.due;
                     return a.from < b.from;
                   });
  for (Message& message : pending_) {
    shard(message.to).ScheduleAt(message.due, std::move(message.fn));
  }
  pending_.clear();
  if (until == barrier_) {
    // Not a new barrier: events scheduled at `until` since the last one
    // (e.g. by a control tick) run in the next.
    return;
  }
  // Shards are causally independent until the barrier (see header), so the
  // engines may run concurrently. Each worker runs one contiguous range of
  // engines serially, ascending on even barriers and descending on odd ones,
  // so the engines one barrier ran last, still in cache, run first at the
  // next. The partition and the order only change which thread hosts which
  // engine when, never the per-engine event order.
  running_ = true;
  const std::size_t n = engines_.size();
  const std::size_t ranges =
      pool_ != nullptr ? static_cast<std::size_t>(pool_->num_threads()) : 1;
  const bool descending = num_barriers_ % 2 == 1;
  ParallelFor(pool_.get(), ranges, [this, n, ranges, until, descending](std::size_t r) {
    const std::size_t begin = r * n / ranges;
    const std::size_t end = (r + 1) * n / ranges;
    for (std::size_t i = begin; i < end; ++i) {
      engines_[descending ? begin + end - 1 - i : i]->RunUntil(until);
    }
  });
  running_ = false;
  barrier_ = until;
  ++num_barriers_;
}

std::uint64_t ShardedSimulation::events_executed() const {
  std::uint64_t total = 0;
  for (const Simulation* engine : engines_) {
    total += engine->events_executed();
  }
  return total;
}

}  // namespace tableau
