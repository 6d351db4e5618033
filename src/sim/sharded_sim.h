// Barrier-synchronised multi-engine simulation: the execution substrate of
// the fleet (src/fleet/cluster.h), where each shard is one fleet host and
// its engine is the one that host's Machine owns (DESIGN.md "Simulation hot
// loop", sharded determinism argument).
//
// A ShardedSimulation is a barrier over engines it does not own. RunUntil(t)
// is one barrier: it injects the queued cross-shard messages (VM arrival
// activations, live-migration transfers) into their target engines in (due
// time, sender shard, post order), runs every engine to t, and returns.
// Post() is legal only between RunUntil calls; a post from inside a shard
// event aborts.
//
// Determinism argument: while the engines run, nothing crosses between
// shards, so a shard's event sequence depends only on its own prior events
// and the messages injected at earlier barriers. Both are identical whether
// the engines run one after another (serial) or concurrently, and every
// message is posted by the single thread that calls RunUntil, so the
// injection order is fixed. `parallel` is therefore purely an execution
// strategy: per-shard event streams, and hence any fingerprint computed over
// (shard, time, payload), are bit-identical with it on or off, for any
// worker count (asserted by tests/sharded_sim_test.cc).
//
// With `parallel == true`, each barrier runs the engines on a ThreadPool
// created once with the simulation, one contiguous range of shards per
// worker; message injection stays on the calling thread. Every range runs
// in ascending shard order on even barriers and descending on odd ones (the
// shards a barrier ran last, still in cache, run first at the next); the
// order is an execution choice too and changes no shard's events.
#ifndef SRC_SIM_SHARDED_SIM_H_
#define SRC_SIM_SHARDED_SIM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/time.h"
#include "src/sim/simulation.h"

namespace tableau {

class ThreadPool;

class ShardedSimulation {
 public:
  struct Options {
    // Run the shard engines on worker threads at each barrier.
    bool parallel = false;
    // Worker threads for parallel barriers (<= 0: the hardware concurrency).
    // Capped at the shard count. Shards are partitioned into contiguous
    // ranges, one range per worker, and each worker runs its range serially
    // — purely an execution-cost knob; message injection is unchanged, so
    // results are byte-identical for any thread count (tests/fleet_test.cc).
    int num_threads = 0;
  };

  // One shard per engine, in order. The engines are not owned and must
  // outlive the simulation; the caller schedules each shard's local events
  // on its engine directly.
  ShardedSimulation(std::vector<Simulation*> engines, const Options& options);
  ~ShardedSimulation();

  int num_shards() const { return static_cast<int>(engines_.size()); }

  // Engine hosting `shard`'s local events.
  Simulation& shard(int shard) { return *engines_[static_cast<std::size_t>(shard)]; }

  // Last completed barrier time (the globally agreed-upon clock).
  TimeNs Now() const { return barrier_; }

  // Queues `fn` to run on `to_shard` `delay` (>= 0) ns after Now(); the
  // next RunUntil injects it. Legal only between RunUntil calls. Messages
  // due at the same instant are delivered in (sender shard, post order).
  void Post(int from_shard, int to_shard, TimeNs delay, std::function<void()> fn);

  // One barrier: injects the queued messages and advances every shard to
  // `until`.
  void RunUntil(TimeNs until);

  // Sum of events executed across the shard engines.
  std::uint64_t events_executed() const;

  // Barriers completed so far (observability / bench).
  std::uint64_t epochs() const { return num_barriers_; }

 private:
  struct Message {
    TimeNs due;
    int from;
    int to;
    std::function<void()> fn;
  };

  std::vector<Simulation*> engines_;
  // Parallel mode only; null runs the engines inline.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<Message> pending_;  // In post order.
  TimeNs barrier_ = 0;
  std::uint64_t num_barriers_ = 0;
  bool running_ = false;
};

}  // namespace tableau

#endif  // SRC_SIM_SHARDED_SIM_H_
