#include "src/sim/sharded_sim.h"

#include <algorithm>
#include <thread>
#include <utility>

namespace tableau {

ShardedSimulation::ShardedSimulation(const Options& options)
    : options_(options) {
  TABLEAU_CHECK(options_.num_shards >= 1);
  TABLEAU_CHECK(options_.epoch_ns > 0);
  TABLEAU_CHECK(!options_.parallel || options_.sharded);
  const std::size_t engines =
      options_.sharded ? static_cast<std::size_t>(options_.num_shards) : 1;
  engines_.reserve(engines);
  for (std::size_t i = 0; i < engines; ++i) {
    engines_.push_back(std::make_unique<Simulation>());
  }
  outbox_.resize(static_cast<std::size_t>(options_.num_shards));
  next_seq_.assign(static_cast<std::size_t>(options_.num_shards), 1);
}

ShardedSimulation::PostResult ShardedSimulation::Post(
    int from_shard, int to_shard, TimeNs delay, std::function<void()> fn) {
  TABLEAU_CHECK(from_shard >= 0 && from_shard < options_.num_shards);
  TABLEAU_CHECK(to_shard >= 0 && to_shard < options_.num_shards);
  if (delay < options_.epoch_ns) {
    return PostResult{PostResult::Status::kTooEarly, options_.epoch_ns};
  }
  const auto sender = static_cast<std::size_t>(from_shard);
  outbox_[sender].push_back(Message{shard(from_shard).Now() + delay,
                                    from_shard, next_seq_[sender]++, to_shard,
                                    std::move(fn)});
  return PostResult{};
}

void ShardedSimulation::DeliverPending() {
  // Merge all outboxes into (due, sender, seq) order, then inject. The
  // injection order fixes the target engines' arm-seq order among
  // same-instant messages, so delivery is deterministic regardless of which
  // shard (or thread) produced which message first in wall-clock terms.
  std::vector<Message> merged;
  std::size_t total = 0;
  for (const auto& box : outbox_) {
    total += box.size();
  }
  if (total == 0) {
    return;
  }
  merged.reserve(total);
  for (auto& box : outbox_) {
    for (Message& message : box) {
      merged.push_back(std::move(message));
    }
    box.clear();
  }
  std::sort(merged.begin(), merged.end(),
            [](const Message& a, const Message& b) {
              if (a.due != b.due) return a.due < b.due;
              if (a.from != b.from) return a.from < b.from;
              return a.seq < b.seq;
            });
  for (Message& message : merged) {
    TABLEAU_CHECK(message.due >= barrier_);
    shard(message.to).ScheduleAt(message.due, std::move(message.fn));
  }
}

void ShardedSimulation::RunEpoch(TimeNs epoch_end) {
  if (!options_.parallel || engines_.size() == 1) {
    for (auto& engine : engines_) {
      engine->RunUntil(epoch_end);
    }
    return;
  }
  // Shards are causally independent within an epoch (see header), so the
  // engines may run concurrently; the barrier is the join. With a bounded
  // worker count the engines are split into contiguous ranges, one per
  // worker, each range run serially — the partition only changes which
  // thread hosts which engine, never the per-engine event order.
  std::size_t workers_wanted = options_.num_threads > 0
                                   ? static_cast<std::size_t>(options_.num_threads)
                                   : engines_.size();
  workers_wanted = std::min(workers_wanted, engines_.size());
  const std::size_t per_worker =
      (engines_.size() + workers_wanted - 1) / workers_wanted;
  std::vector<std::thread> workers;
  workers.reserve(workers_wanted - 1);
  const auto run_range = [this, epoch_end](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end && i < engines_.size(); ++i) {
      engines_[i]->RunUntil(epoch_end);
    }
  };
  for (std::size_t w = 1; w < workers_wanted; ++w) {
    workers.emplace_back(run_range, w * per_worker, (w + 1) * per_worker);
  }
  run_range(0, per_worker);
  for (std::thread& worker : workers) {
    worker.join();
  }
}

void ShardedSimulation::RunUntil(TimeNs until) {
  TABLEAU_CHECK(until >= barrier_);
  // Messages posted before the first epoch (setup code) are injected up
  // front so the opening epoch sees them.
  DeliverPending();
  while (barrier_ < until) {
    const TimeNs epoch_end = std::min(until, barrier_ + options_.epoch_ns);
    RunEpoch(epoch_end);
    barrier_ = epoch_end;
    ++epochs_;
    DeliverPending();
  }
}

std::uint64_t ShardedSimulation::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& engine : engines_) {
    total += engine->events_executed();
  }
  return total;
}

}  // namespace tableau
