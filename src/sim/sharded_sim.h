// Epoch-barrier multi-engine simulation: the execution substrate of the
// fleet (src/fleet/cluster.h), where each shard is one fleet host (DESIGN.md
// "Simulation hot loop", sharded determinism argument).
//
// A ShardedSimulation partitions an event population into shards. Each
// shard's events run on their own Simulation engine and the shards advance
// in lock-step epochs: all shards run to the epoch boundary, then buffered
// cross-shard messages (VM arrival activations, live-migration transfers)
// are merged in a deterministic (due-time, sender shard, send seq) order and
// injected into their target shards before the next epoch starts.
//
// Determinism / serial-equivalence argument: cross-shard sends must carry a
// latency of at least one epoch (Post() checks), so a message posted during
// epoch k is due no earlier than the start of epoch k+1 — the target shard
// has not yet advanced past the delivery time when the barrier injects it.
// Within an epoch, shards are therefore causally independent: a shard's
// event sequence depends only on its own prior events and the messages
// injected at earlier barriers, both of which are identical whether the
// shards share one engine or run on engines of their own (in any order, or
// concurrently). This makes the `sharded` option purely an execution
// strategy: per-shard event streams — and hence any fingerprint computed
// over (shard, time, payload) — are bit-identical with it on or off
// (asserted by tests/sharded_sim_test.cc).
//
// The option is off by default: `sharded == false` multiplexes every shard
// onto a single engine, which is exactly the classic serial mode. With
// `parallel == true` (requires `sharded`), each epoch runs the shard
// engines on worker threads and joins at the barrier; message merging stays
// single-threaded, so the guarantee above is unchanged.
#ifndef SRC_SIM_SHARDED_SIM_H_
#define SRC_SIM_SHARDED_SIM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"
#include "src/sim/simulation.h"

namespace tableau {

class ShardedSimulation {
 public:
  struct Options {
    int num_shards = 1;
    // Barrier quantum: the minimum cross-shard latency. Defaults to 50 us —
    // comfortably under the IPI/table-switch latencies the hypervisor
    // models, and long enough that barrier overhead stays negligible
    // against a level-0 wheel rotation (262 us).
    TimeNs epoch_ns = 50'000;
    // Off by default: all shards multiplex onto one serial engine.
    bool sharded = false;
    // Run shard engines on threads within each epoch (requires sharded).
    bool parallel = false;
    // Worker threads for parallel epochs (<= 0: one thread per shard).
    // Shards are partitioned into contiguous ranges, one range per worker,
    // and each worker runs its range serially — purely an execution-cost
    // knob; the epoch barrier and message merge are unchanged, so results
    // are byte-identical for any thread count (tests/fleet_test.cc).
    int num_threads = 0;
  };

  // Outcome of a cross-shard Post. The sharding contract requires the
  // message latency to be at least one epoch (so delivery stays behind the
  // receiving shard's clock); a too-early post is *rejected*, not adjusted,
  // and the caller decides whether to re-post with `required_delay` or treat
  // the attempt as a policy error. External control planes (src/fleet) probe
  // this result instead of learning the rule via assert.
  struct PostResult {
    enum class Status { kAccepted, kTooEarly };
    Status status = Status::kAccepted;
    // Minimum delay that would have been accepted (== epoch_ns); only
    // meaningful when status == kTooEarly.
    TimeNs required_delay = 0;
    bool ok() const { return status == Status::kAccepted; }
  };

  explicit ShardedSimulation(const Options& options);

  int num_shards() const { return options_.num_shards; }
  TimeNs epoch_ns() const { return options_.epoch_ns; }
  bool sharded() const { return options_.sharded; }

  // Engine hosting `shard`'s local events. Callers schedule per-pCPU work
  // (dispatch ticks, vCPU timers) directly on it; in serial mode every
  // shard resolves to the same engine.
  Simulation& shard(int shard) {
    return *engines_[options_.sharded ? static_cast<std::size_t>(shard) : 0];
  }

  // Last completed barrier time (the globally agreed-upon clock).
  TimeNs Now() const { return barrier_; }

  // Posts `fn` to run on `to_shard` at `delay` ns after `from_shard`'s
  // current local time. `delay` must be >= epoch_ns — the sharding contract
  // that keeps delivery behind the receiving shard's clock; a shorter delay
  // returns PostResult{kTooEarly, epoch_ns} and enqueues nothing (`fn` is
  // dropped). Shard indices out of range are a programming error and still
  // abort. Delivery order among messages due at the same instant is
  // (sender shard, send seq) — deterministic and mode-independent.
  [[nodiscard]] PostResult Post(int from_shard, int to_shard, TimeNs delay,
                                std::function<void()> fn);

  // Advances all shards to `until` in epoch steps, delivering cross-shard
  // messages at each barrier.
  void RunUntil(TimeNs until);

  // Sum of events executed across the shard engines.
  std::uint64_t events_executed() const;

  // Barriers completed so far (observability / bench).
  std::uint64_t epochs() const { return epochs_; }

 private:
  struct Message {
    TimeNs due;
    int from;
    std::uint64_t seq;
    int to;
    std::function<void()> fn;
  };

  void DeliverPending();
  void RunEpoch(TimeNs epoch_end);

  Options options_;
  std::vector<std::unique_ptr<Simulation>> engines_;
  // Outbox per sender shard: with parallel execution each shard appends to
  // its own buffer during the epoch, so no cross-thread contention; the
  // barrier merges them deterministically.
  std::vector<std::vector<Message>> outbox_;
  std::vector<std::uint64_t> next_seq_;
  TimeNs barrier_ = 0;
  std::uint64_t epochs_ = 0;
};

}  // namespace tableau

#endif  // SRC_SIM_SHARDED_SIM_H_
