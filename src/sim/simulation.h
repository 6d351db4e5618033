// Discrete-event simulation engine.
//
// The hypervisor substrate (src/hypervisor) runs on this engine: every
// context switch, timer, wake-up, and IPI is an event at nanosecond
// resolution. Events at the same timestamp execute in scheduling (FIFO)
// order, which keeps runs exactly deterministic.
//
// Engine design (see DESIGN.md "Event engine" and "Simulation hot loop"):
//  - Events live in a chunked slab pool with a free list; an EventId packs
//    {generation, pool slot}, so cancellation is O(1) true deletion and a
//    stale id (already fired, already cancelled, slot since reused) is
//    detected by a generation mismatch instead of an unbounded tombstone
//    set. Callbacks are stored inline in the node (EventCallback) with no
//    heap fallback, so the schedule hot path performs zero allocations.
//  - Pending events sit in a 4-level hierarchical timer wheel (256 slots
//    per level, 1024 ns level-0 slots, ~73 min horizon) with an overflow
//    min-heap for events beyond the current top-level rotation.
//  - Dispatch is batched per level-0 slot: a whole slot is drained into a
//    contiguous batch array, sorted once by (time, seq) — seq is a
//    monotonically increasing arm counter, so the sort restores exact FIFO
//    order among same-time events — and then executed by bumping an index.
//    Only events that land behind the wheel cursor after the drain (rare:
//    sub-slot re-arms, cascade stragglers) go through the small "near"
//    min-heap, which is merged with the batch by (time, seq) on pop.
//  - Persistent timers (CreateTimer / SchedulePeriodic / Arm / Disarm) let
//    hot periodic work — scheduler accounting ticks, workload pacers, the
//    per-CPU dispatch events — re-arm one pooled node instead of
//    allocating a fresh closure per tick.
#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"
#include "src/sim/event_callback.h"

namespace tableau {

// Packs {generation:32, pool slot + 1:32}; 0 is never a valid id.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Simulation {
 public:
  Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimeNs Now() const { return now_; }

  // Schedules `fn` to run once at absolute time `at` (>= Now()). Returns an
  // id that can be passed to Cancel(). The node is reclaimed when the event
  // fires or is cancelled.
  template <typename F>
  EventId ScheduleAt(TimeNs at, F&& fn) {
    const std::int32_t node = AllocNode(/*persistent=*/false, /*period=*/0);
    NodeRef(node).fn.Set(std::forward<F>(fn));
    return ArmNode(node, at);
  }

  // Schedules `fn` to run `delay` ns from now.
  template <typename F>
  EventId ScheduleAfter(TimeNs delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Schedules `fn` to run at absolute time `first_at` and then every
  // `period` ns, re-arming the same pooled node (no per-tick allocation).
  // From inside its own callback the event may override the next fire time
  // with Arm(id, at) or stop itself with Cancel(id)/Disarm(id).
  template <typename F>
  EventId SchedulePeriodic(TimeNs first_at, TimeNs period, F&& fn) {
    TABLEAU_CHECK(period > 0);
    const std::int32_t node = AllocNode(/*persistent=*/true, period);
    NodeRef(node).fn.Set(std::forward<F>(fn));
    return ArmNode(node, first_at);
  }

  // Creates a dormant persistent timer: the callback is stored once and the
  // timer fires whenever Arm()ed, going dormant again after each fire.
  // Destroyed with Cancel().
  template <typename F>
  EventId CreateTimer(F&& fn) {
    const std::int32_t node = AllocNode(/*persistent=*/true, /*period=*/0);
    NodeRef(node).fn.Set(std::forward<F>(fn));
    return IdOf(node);
  }

  // (Re-)arms `id` to fire at absolute time `at` (>= Now()): a dormant
  // timer is enqueued, a pending event is moved, and an event arming itself
  // from inside its own callback records `at` as its next fire time. The id
  // must be live (fired-and-reclaimed one-shots and cancelled events are
  // invalid here).
  void Arm(EventId id, TimeNs at);

  // Dequeues a pending event. A persistent timer stays allocated (dormant,
  // re-armable); a one-shot is reclaimed. From inside the event's own
  // callback this suppresses the pending re-arm of a periodic timer. No-op
  // for already-fired or already-cancelled ids.
  void Disarm(EventId id);

  // Cancels an event and reclaims its node — O(1), no tombstones. For a
  // periodic/persistent timer this both stops future fires and destroys the
  // timer. Cancelling an already-fired or already-cancelled event is a
  // no-op.
  void Cancel(EventId id);

  // Runs events until the queue is empty or the next event is after
  // `until`; the clock ends at exactly `until`. Aborts when called from
  // inside an event callback.
  void RunUntil(TimeNs until);

  // Runs until no pending events remain (dormant timers don't count). Aborts
  // when called from inside an event callback.
  void RunAll();

  std::uint64_t events_executed() const { return events_executed_; }

  // Internal-mechanism counters for observability (exported as sim.* metrics
  // by Machine::SnapshotMetrics). Plain integers: the engine is
  // single-threaded and these never influence event order.
  struct EngineStats {
    std::uint64_t wheel_cascades = 0;    // Higher-level slots redistributed.
    std::uint64_t slot_drains = 0;       // Level-0 slots drained into a batch.
    std::uint64_t batch_sorts = 0;       // Drained slots that needed a sort (>1 event).
    std::uint64_t overflow_reloads = 0;  // Wheel rebases from the overflow heap.
    std::size_t peak_live_nodes = 0;     // High-water mark of live_events().
  };
  const EngineStats& engine_stats() const { return engine_stats_; }

  // Pool introspection (tests / benches): nodes currently allocated to
  // pending, active, or dormant events, and the pool's total capacity.
  // Capacity staying flat across schedule/fire/cancel churn is the
  // no-leak regression signal.
  std::size_t live_events() const { return live_nodes_; }
  std::size_t pool_capacity() const { return chunks_.size() * kChunkSize; }

  // Test hook: walks the whole structure and aborts if an internal invariant
  // is broken (wheel node behind the cursor, bitmap out of sync with the
  // slot lists, misfiled level/slot, batch entry desynced from its node).
  // O(pool + slots); call from tests only.
  void CheckInvariantsForTest() const;

 private:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 8;
  static constexpr int kSlots = 1 << kSlotBits;             // 256 slots/level.
  static constexpr int kShift0 = 10;                        // 1024 ns level-0 slots.
  static constexpr std::int32_t kNil = -1;
  static constexpr std::size_t kChunkSize = 256;
  // Pool ceiling: kMaxChunks * kChunkSize live events. The flat chunk table
  // below keeps node lookup to one dependent load; 256k simultaneous events
  // is two orders of magnitude beyond any current scenario.
  static constexpr std::size_t kMaxChunks = 1024;

  enum class Where : std::uint8_t {
    kFree,     // On the free list.
    kDormant,  // Allocated persistent timer, not queued.
    kWheel,    // Linked into a wheel slot (level_/slot_).
    kBatch,    // Drained into the current execution batch.
    kNear,     // Tracked by an entry in near_.
    kOverflow, // Tracked by an entry in overflow_.
    kActive,   // Callback currently executing.
  };

  // 128 bytes, cache-line aligned. The execute path (time, seq, links,
  // where, period, the callback's invoke pointer, and the first 16 capture
  // bytes — every real callback captures a pointer and at most one more
  // word, e.g. a Machine timer's [this, cpu]) reads a single line.
  // Per-activation scratch (mid-callback Arm/Disarm/Cancel) lives in the
  // Simulation object instead: only one event is active at a time, and the
  // owner's hot fields are already resident.
  struct alignas(64) EventNode {
    TimeNs time = 0;
    std::uint64_t seq = 0;
    std::int32_t prev = kNil;    // Wheel slot list links; next doubles as
    std::int32_t next = kNil;    // the free-list link.
    std::uint32_t generation = 0;
    Where where = Where::kFree;
    bool persistent = false;
    std::uint8_t level = 0;
    std::uint8_t slot = 0;       // kSlots == 256: a slot index is one byte.
    TimeNs period = 0;           // > 0: auto re-arm at time + period.
    EventCallback fn;
  };
  static_assert(sizeof(EventNode) == 128, "EventNode outgrew two cache lines");
  static_assert(offsetof(EventNode, fn) + sizeof(void*) + 16 <= 64,
                "the invoke pointer and a two-word capture left the first line");

  // Heap entries carry their own sort key so a reclaimed node (generation
  // bumped, slot possibly reused) never has to be dereferenced for
  // ordering; staleness is checked against the node on pop.
  struct HeapEntry {
    TimeNs time;
    std::uint64_t seq;
    EventId id;
  };

  // Batch entries reference the node directly: within one batch's lifetime a
  // pool slot cannot cycle back into Where::kBatch (a new drain only happens
  // once the previous batch is exhausted), so `where == kBatch && seq ==
  // entry.seq` is a complete staleness check — no generation resolve needed.
  struct BatchEntry {
    TimeNs time;
    std::uint64_t seq;
    std::int32_t node;
  };

  static int ShiftOf(int level) { return kShift0 + kSlotBits * level; }
  EventId IdOf(std::int32_t node) const {
    return (static_cast<EventId>(NodeRef(node).generation) << 32) |
           static_cast<EventId>(static_cast<std::uint32_t>(node) + 1);
  }

  EventNode& NodeRef(std::int32_t node) const {
    return chunk_table_[static_cast<std::size_t>(node) / kChunkSize]
                       [static_cast<std::size_t>(node) % kChunkSize];
  }
  // Resolves an id to its node index, or kNil if stale/invalid.
  std::int32_t Resolve(EventId id) const;

  std::int32_t AllocNode(bool persistent, TimeNs period);
  void FreeNode(std::int32_t node);
  EventId ArmNode(std::int32_t node, TimeNs at);

  // Routes a node (time/seq already set) into the near heap, a wheel slot,
  // or the overflow heap, based on its distance from base_.
  void Insert(std::int32_t node);
  void LinkWheel(std::int32_t node, int level, int slot);
  void UnlinkWheel(std::int32_t node);

  void HeapPush(std::vector<HeapEntry>& heap, const HeapEntry& entry);
  void HeapPop(std::vector<HeapEntry>& heap);

  // AdvanceOnce return values below node indices: no pending content vs
  // progress made (cascade, reload, or multi-event drain) — call again.
  static constexpr std::int32_t kAdvanceNone = -1;
  static constexpr std::int32_t kAdvanceProgress = -2;

  // Moves the wheel forward to the next occupied content: drains the next
  // occupied level-0 slot, cascades one higher-level slot, or reloads from
  // the overflow heap. A single-event slot — the common case at production
  // densities — returns its node directly, bypassing the batch; multi-event
  // slots fill batch_ and return kAdvanceProgress.
  std::int32_t AdvanceOnce();
  int FindOccupied(int level, int from) const;
  void DrainSlotToBatch(std::int32_t head);
  // Re-parks a node produced by a direct single-event drain as the sole
  // batch entry (limit overrun or pending near merge).
  void StashAsBatch(std::int32_t node);
  void CascadeSlot(int level, int slot);

  // Pops the next live event with time <= limit from the batch/near merge
  // (advancing the wheel as needed); kNil if none.
  std::int32_t PopNextLive(TimeNs limit);
  bool PopAndRunNext(TimeNs limit);

  TimeNs now_ = 0;
  TimeNs base_ = 0;  // Level-0-aligned; wheel/overflow events are >= base_.
  TimeNs flushed_base_ = 0;  // base_ value at the last cursor-slot flush.
  std::uint64_t next_seq_ = 1;
  // Scratch for the currently executing event; there is at most one, since
  // RunUntil and RunAll abort when called from a callback. A mid-callback
  // Arm/Disarm/Cancel records its outcome here and PopAndRunNext applies it
  // after the callback returns.
  std::int32_t active_node_ = kNil;
  bool active_kill_ = false;       // Cancel() during own callback.
  bool active_no_rearm_ = false;   // Disarm() during own callback.
  TimeNs active_rearm_at_ = kTimeNever;  // Arm() during own callback.
  std::uint64_t active_rearm_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::size_t live_nodes_ = 0;
  EngineStats engine_stats_;

  std::vector<std::unique_ptr<EventNode[]>> chunks_;  // Owns the pool chunks.
  // Flat mirror of chunks_: NodeRef indexes this fixed array directly (one
  // dependent load) instead of chasing through the vector's data pointer.
  EventNode* chunk_table_[kMaxChunks] = {};
  std::int32_t free_head_ = kNil;

  std::int32_t wheel_[kLevels][kSlots];  // Slot list heads (kNil when empty).
  std::uint64_t occupied_[kLevels][kSlots / 64] = {};
  // Current level-0 slot, sorted by (time, seq). The vector is a raw grow-only
  // buffer: the live region is [batch_pos_, batch_end_), not [0, size()).
  std::vector<BatchEntry> batch_;
  std::size_t batch_pos_ = 0;
  std::size_t batch_end_ = 0;
  // Set when Cancel/Disarm/Arm touches a kBatch node: only then can an
  // unconsumed batch entry be stale, so the pop fast path skips the
  // per-entry node check entirely while the flag is clear.
  bool batch_dirty_ = false;
  std::vector<HeapEntry> near_;
  std::vector<HeapEntry> overflow_;
};

}  // namespace tableau

#endif  // SRC_SIM_SIMULATION_H_
