#include "src/sim/simulation.h"

#include <algorithm>
#include <memory>

namespace tableau {

namespace {

// Min-heap order over (time, seq): seq is assigned monotonically at arm
// time, so same-time events pop in FIFO schedule order.
bool EntryAfter(TimeNs at, std::uint64_t as, TimeNs bt, std::uint64_t bs) {
  if (at != bt) return at > bt;
  return as > bs;
}

}  // namespace

Simulation::Simulation() {
  for (int level = 0; level < kLevels; ++level) {
    for (int slot = 0; slot < kSlots; ++slot) {
      wheel_[level][slot] = kNil;
    }
  }
}

std::int32_t Simulation::Resolve(EventId id) const {
  if (id == kInvalidEvent) {
    return kNil;
  }
  const std::uint32_t low = static_cast<std::uint32_t>(id);
  if (low == 0 || low > chunks_.size() * kChunkSize) {
    return kNil;
  }
  const std::int32_t node = static_cast<std::int32_t>(low - 1);
  const EventNode& ref = NodeRef(node);
  if (ref.where == Where::kFree || ref.generation != static_cast<std::uint32_t>(id >> 32)) {
    return kNil;
  }
  return node;
}

std::int32_t Simulation::AllocNode(bool persistent, TimeNs period) {
  if (free_head_ == kNil) {
    TABLEAU_CHECK_MSG(chunks_.size() < kMaxChunks, "event pool ceiling reached");
    const std::int32_t first = static_cast<std::int32_t>(chunks_.size() * kChunkSize);
    chunks_.push_back(std::make_unique<EventNode[]>(kChunkSize));
    chunk_table_[chunks_.size() - 1] = chunks_.back().get();
    for (std::int32_t i = static_cast<std::int32_t>(kChunkSize) - 1; i >= 0; --i) {
      EventNode& ref = NodeRef(first + i);
      ref.next = free_head_;
      free_head_ = first + i;
    }
  }
  const std::int32_t node = free_head_;
  EventNode& ref = NodeRef(node);
  free_head_ = ref.next;
  ref.where = Where::kDormant;
  ref.persistent = persistent;
  ref.period = period;
  // rearm_at/kill/no_rearm are (re)initialized by PopAndRunNext before the
  // callback runs and never read before then; prev/next are set when the
  // node is linked into a wheel slot. Leaving them stale here keeps the
  // allocation path to a handful of stores.
  ++live_nodes_;
  engine_stats_.peak_live_nodes = std::max(engine_stats_.peak_live_nodes, live_nodes_);
  return node;
}

void Simulation::FreeNode(std::int32_t node) {
  EventNode& ref = NodeRef(node);
  ref.fn.Reset();
  ++ref.generation;  // Invalidates every outstanding id/heap entry for this slot.
  ref.where = Where::kFree;
  ref.next = free_head_;
  free_head_ = node;
  --live_nodes_;
}

EventId Simulation::ArmNode(std::int32_t node, TimeNs at) {
  TABLEAU_CHECK_MSG(at >= now_, "event scheduled in the past: %lld < %lld",
                    static_cast<long long>(at), static_cast<long long>(now_));
  EventNode& ref = NodeRef(node);
  ref.time = at;
  ref.seq = next_seq_++;
  Insert(node);
  return IdOf(node);
}

void Simulation::Insert(std::int32_t node) {
  EventNode& ref = NodeRef(node);
  const TimeNs t = ref.time;
  if (t < base_) {
    // Behind the wheel cursor (the current level-0 slot already drained, or
    // the event belongs to the window currently being executed).
    ref.where = Where::kNear;
    HeapPush(near_, HeapEntry{t, ref.seq, IdOf(node)});
    return;
  }
  // Smallest level whose current rotation (256 slots above `shift`) still
  // contains `t`. Alignment — not distance — decides the level, so the slot
  // index is always at or ahead of the cursor and never wraps onto a slot
  // the cursor has already passed. The level is the index of the highest
  // differing slot-index byte of (t, base_) above the level-0 shift.
  const std::uint64_t diff =
      static_cast<std::uint64_t>(t ^ base_) >> kShift0;
  const int level = (63 - __builtin_clzll(diff | 1)) >> 3;
  if (level < kLevels) {
    LinkWheel(node, level, static_cast<int>((t >> ShiftOf(level)) & (kSlots - 1)));
    return;
  }
  ref.where = Where::kOverflow;
  HeapPush(overflow_, HeapEntry{t, ref.seq, IdOf(node)});
}

void Simulation::LinkWheel(std::int32_t node, int level, int slot) {
  EventNode& ref = NodeRef(node);
  ref.where = Where::kWheel;
  ref.level = static_cast<std::uint8_t>(level);
  ref.slot = static_cast<std::uint8_t>(slot);
  ref.prev = kNil;
  ref.next = wheel_[level][slot];
  if (ref.next != kNil) {
    NodeRef(ref.next).prev = node;
  }
  wheel_[level][slot] = node;
  occupied_[level][slot >> 6] |= 1ull << (slot & 63);
}

void Simulation::UnlinkWheel(std::int32_t node) {
  EventNode& ref = NodeRef(node);
  if (ref.prev != kNil) {
    NodeRef(ref.prev).next = ref.next;
  } else {
    wheel_[ref.level][ref.slot] = ref.next;
  }
  if (ref.next != kNil) {
    NodeRef(ref.next).prev = ref.prev;
  }
  if (wheel_[ref.level][ref.slot] == kNil) {
    occupied_[ref.level][ref.slot >> 6] &= ~(1ull << (ref.slot & 63));
  }
  ref.prev = kNil;
  ref.next = kNil;
}

void Simulation::HeapPush(std::vector<HeapEntry>& heap, const HeapEntry& entry) {
  heap.push_back(entry);
  std::size_t child = heap.size() - 1;
  while (child > 0) {
    const std::size_t parent = (child - 1) / 2;
    if (!EntryAfter(heap[parent].time, heap[parent].seq, heap[child].time, heap[child].seq)) {
      break;
    }
    std::swap(heap[parent], heap[child]);
    child = parent;
  }
}

void Simulation::HeapPop(std::vector<HeapEntry>& heap) {
  heap.front() = heap.back();
  heap.pop_back();
  std::size_t parent = 0;
  const std::size_t size = heap.size();
  while (true) {
    std::size_t best = parent;
    const std::size_t left = 2 * parent + 1;
    const std::size_t right = left + 1;
    if (left < size && EntryAfter(heap[best].time, heap[best].seq, heap[left].time, heap[left].seq)) {
      best = left;
    }
    if (right < size && EntryAfter(heap[best].time, heap[best].seq, heap[right].time, heap[right].seq)) {
      best = right;
    }
    if (best == parent) {
      break;
    }
    std::swap(heap[parent], heap[best]);
    parent = best;
  }
}

int Simulation::FindOccupied(int level, int from) const {
  int word = from >> 6;
  std::uint64_t bits = occupied_[level][word] & (~0ull << (from & 63));
  while (true) {
    if (bits != 0) {
      return (word << 6) + __builtin_ctzll(bits);
    }
    if (++word >= kSlots / 64) {
      return -1;
    }
    bits = occupied_[level][word];
  }
}

void Simulation::DrainSlotToBatch(std::int32_t head) {
  // A slot can never hold more events than there are live nodes, so one
  // conditional reserve makes the fill loop bounds-check-free raw stores.
  if (batch_.size() < live_nodes_) {
    batch_.resize(live_nodes_);
  }
  batch_pos_ = 0;
  batch_dirty_ = false;
  BatchEntry* out = batch_.data();
  std::size_t count = 0;
  std::int32_t node = head;
  while (node != kNil) {
    EventNode& ref = NodeRef(node);
    const std::int32_t next = ref.next;
    if (next != kNil) {
      __builtin_prefetch(&NodeRef(next));
    }
    ref.where = Where::kBatch;
    out[count++] = BatchEntry{ref.time, ref.seq, node};
    node = next;
  }
  batch_end_ = count;
  // The slot list is LIFO-linked; one sort restores global (time, seq) FIFO
  // order for the whole slot instead of a heap push+pop per event. Slots
  // hold a handful of events at production densities, where an inline
  // insertion sort beats std::sort's dispatch overhead by a wide margin.
  ++engine_stats_.batch_sorts;
  if (count <= 16) {
    for (std::size_t i = 1; i < count; ++i) {
      const BatchEntry key = out[i];
      std::size_t j = i;
      while (j > 0 && EntryAfter(out[j - 1].time, out[j - 1].seq, key.time, key.seq)) {
        out[j] = out[j - 1];
        --j;
      }
      out[j] = key;
    }
    return;
  }
  std::sort(out, out + count, [](const BatchEntry& a, const BatchEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  });
}

void Simulation::StashAsBatch(std::int32_t node) {
  EventNode& ref = NodeRef(node);
  ref.where = Where::kBatch;
  if (batch_.empty()) {
    batch_.resize(1);
  }
  batch_pos_ = 0;
  batch_end_ = 1;
  batch_dirty_ = false;
  batch_[0] = BatchEntry{ref.time, ref.seq, node};
}

void Simulation::CascadeSlot(int level, int slot) {
  ++engine_stats_.wheel_cascades;
  std::int32_t node = wheel_[level][slot];
  wheel_[level][slot] = kNil;
  occupied_[level][slot >> 6] &= ~(1ull << (slot & 63));
  while (node != kNil) {
    const std::int32_t next = NodeRef(node).next;
    NodeRef(node).prev = kNil;
    NodeRef(node).next = kNil;
    Insert(node);  // Re-routes to a lower level (or near_ if behind base_).
    node = next;
  }
}

std::int32_t Simulation::AdvanceOnce() {
  // Flush occupied cursor slots top-down first. When base_ crosses into a
  // new level-k slot (level-0 drain jumps, cascade clamps, overflow reload),
  // events already parked in that slot share the current low-level rotation
  // with base_ and can precede anything inserted into the lower levels
  // afterwards — they must be distributed down before any level-0 slot is
  // drained. No insert ever targets the *current* cursor slot of a level
  // >= 1 (such a time is in a lower level's rotation by alignment), so the
  // flush only has work when base_ crossed a level-1-or-higher slot
  // boundary since the last flush — skip it otherwise.
  if (((base_ ^ flushed_base_) >> ShiftOf(1)) != 0) {
    for (int level = kLevels - 1; level >= 1; --level) {
      const int cur = static_cast<int>((base_ >> ShiftOf(level)) & (kSlots - 1));
      if ((occupied_[level][cur >> 6] >> (cur & 63)) & 1) {
        CascadeSlot(level, cur);
      }
    }
  }
  flushed_base_ = base_;
  // Level 0: drain the next occupied slot of this rotation.
  const int cur0 = static_cast<int>((base_ >> kShift0) & (kSlots - 1));
  int found = FindOccupied(0, cur0);
  if (found >= 0) {
    ++engine_stats_.slot_drains;
    const std::int32_t head = wheel_[0][found];
    wheel_[0][found] = kNil;
    occupied_[0][found >> 6] &= ~(1ull << (found & 63));
    base_ = ((base_ >> kShift0) + (found - cur0) + 1) << kShift0;
    if (NodeRef(head).next == kNil) {
      // Single-event slot: hand the node straight to the caller — no batch
      // traffic at all. Its `where` is stale (kWheel) for the instant until
      // the caller executes or stashes it; no user code runs in between.
      return head;
    }
    DrainSlotToBatch(head);
    return kAdvanceProgress;
  }
  // Level-0 rotation exhausted: cascade the next occupied higher-level slot
  // down one level. base_ is clamped forward (never backward — the cursor
  // slot can hold events even when base_ sits mid-slot after an overflow
  // reload; cascading re-routes any now-behind events into near_).
  for (int level = 1; level < kLevels; ++level) {
    const int shift = ShiftOf(level);
    const int cur = static_cast<int>((base_ >> shift) & (kSlots - 1));
    found = FindOccupied(level, cur);
    if (found < 0) {
      continue;
    }
    const TimeNs rotation_start = (base_ >> (shift + kSlotBits)) << (shift + kSlotBits);
    const TimeNs slot_start = rotation_start + (static_cast<TimeNs>(found) << shift);
    base_ = std::max(base_, slot_start);
    CascadeSlot(level, found);
    return kAdvanceProgress;
  }
  // Whole wheel empty: rebase onto the earliest live overflow event and pull
  // in everything that fits the new top-level rotation.
  while (!overflow_.empty()) {
    const HeapEntry top = overflow_.front();
    const std::int32_t node = Resolve(top.id);
    if (node == kNil || NodeRef(node).where != Where::kOverflow ||
        NodeRef(node).seq != top.seq) {
      HeapPop(overflow_);
      continue;
    }
    base_ = (top.time >> kShift0) << kShift0;
    ++engine_stats_.overflow_reloads;
    const int rotation_shift = ShiftOf(kLevels - 1) + kSlotBits;
    while (!overflow_.empty()) {
      const HeapEntry entry = overflow_.front();
      const std::int32_t candidate = Resolve(entry.id);
      if (candidate == kNil || NodeRef(candidate).where != Where::kOverflow ||
          NodeRef(candidate).seq != entry.seq) {
        HeapPop(overflow_);
        continue;
      }
      if ((entry.time >> rotation_shift) != (base_ >> rotation_shift)) {
        break;
      }
      HeapPop(overflow_);
      Insert(candidate);
    }
    return kAdvanceProgress;
  }
  return kAdvanceNone;
}

std::int32_t Simulation::PopNextLive(TimeNs limit) {
  while (true) {
    // Skip batch entries whose node was cancelled or re-armed since the
    // drain (seq is never reused, so a seq match proves the entry is live).
    // Unless batch_dirty_ is set no such operation has happened, and every
    // unconsumed entry is known-live without touching its node.
    std::size_t pos = batch_pos_;
    const std::size_t end = batch_end_;
    if (batch_dirty_) {
      while (pos != end) {
        const BatchEntry& entry = batch_[pos];
        const EventNode& ref = NodeRef(entry.node);
        if (ref.where == Where::kBatch && ref.seq == entry.seq) {
          break;
        }
        ++pos;
      }
      batch_pos_ = pos;
    }
    if (near_.empty()) {
      // Hot path: the whole drained slot executes straight out of the batch
      // array — no heap traffic at all.
      if (pos != end) {
        const BatchEntry& entry = batch_[pos];
        if (entry.time > limit) {
          return kNil;
        }
        ++batch_pos_;
        return entry.node;
      }
    } else {
      // Drop stale near entries (node cancelled or re-armed since enqueued).
      while (!near_.empty()) {
        const HeapEntry& entry = near_.front();
        const std::int32_t node = Resolve(entry.id);
        if (node != kNil && NodeRef(node).where == Where::kNear &&
            NodeRef(node).seq == entry.seq) {
          break;
        }
        HeapPop(near_);
      }
      // Merge the batch head against the near heap by (time, seq). Both
      // populations are strictly behind base_, while everything still in the
      // wheel/overflow is at or beyond base_, so the smaller of the two
      // heads is globally next.
      const bool have_near = !near_.empty();
      if (pos != end) {
        const BatchEntry& entry = batch_[pos];
        if (!have_near || !EntryAfter(entry.time, entry.seq, near_.front().time,
                                      near_.front().seq)) {
          if (entry.time > limit) {
            return kNil;
          }
          ++batch_pos_;
          return entry.node;
        }
      }
      if (have_near && near_.front().time < base_) {
        if (near_.front().time > limit) {
          return kNil;
        }
        const std::int32_t node = Resolve(near_.front().id);
        HeapPop(near_);
        return node;
      }
    }
    const std::int32_t advanced = AdvanceOnce();
    if (advanced >= 0) {
      // Direct single-event drain. With near_ empty (the overwhelmingly
      // common case) it is globally next; otherwise park it as a batch
      // entry and merge on the next loop iteration.
      if (near_.empty()) {
        if (NodeRef(advanced).time > limit) {
          StashAsBatch(advanced);
          return kNil;
        }
        return advanced;
      }
      StashAsBatch(advanced);
      continue;
    }
    if (advanced == kAdvanceNone) {
      if (!near_.empty()) {
        if (near_.front().time > limit) {
          return kNil;
        }
        const std::int32_t node = Resolve(near_.front().id);
        HeapPop(near_);
        return node;
      }
      return kNil;
    }
  }
}

__attribute__((flatten)) bool Simulation::PopAndRunNext(TimeNs limit) {
  const std::int32_t node = PopNextLive(limit);
  if (node == kNil) {
    return false;
  }
  // `ref` stays valid across the callback: chunks never move even if the
  // pool grows while the callback schedules new events.
  EventNode& ref = NodeRef(node);
  now_ = ref.time;
  ref.where = Where::kActive;
  active_node_ = node;
  active_kill_ = false;
  active_no_rearm_ = false;
  active_rearm_at_ = kTimeNever;
  ++events_executed_;
  ref.fn.Invoke();
  const bool kill = active_kill_;
  const bool no_rearm = active_no_rearm_;
  const TimeNs rearm_at = active_rearm_at_;
  const std::uint64_t rearm_seq = active_rearm_seq_;
  active_node_ = kNil;
  // Disposition, in priority order: Cancel() from inside the callback wins;
  // then an explicit Arm() (seq was assigned at the Arm call, preserving
  // FIFO order relative to events scheduled after it); then Disarm(); then
  // the periodic auto re-arm; persistent timers go dormant; one-shots free.
  if (kill) {
    FreeNode(node);
  } else if (rearm_at != kTimeNever) {
    ref.time = rearm_at;
    ref.seq = rearm_seq;
    Insert(node);
  } else if (no_rearm) {
    if (ref.persistent) {
      ref.where = Where::kDormant;
    } else {
      FreeNode(node);
    }
  } else if (ref.period > 0) {
    ref.time += ref.period;
    ref.seq = next_seq_++;
    Insert(node);
  } else if (ref.persistent) {
    ref.where = Where::kDormant;
  } else {
    FreeNode(node);
  }
  return true;
}

void Simulation::Arm(EventId id, TimeNs at) {
  const std::int32_t node = Resolve(id);
  TABLEAU_CHECK_MSG(node != kNil, "Arm() on a dead event id");
  TABLEAU_CHECK_MSG(at >= now_, "event scheduled in the past: %lld < %lld",
                    static_cast<long long>(at), static_cast<long long>(now_));
  EventNode& ref = NodeRef(node);
  switch (ref.where) {
    case Where::kActive:
      // Mid-callback self re-arm: record the target and take the seq NOW so
      // ordering against events armed later in the same callback matches
      // the schedule-call order.
      TABLEAU_CHECK_MSG(node == active_node_,
                        "Arm() on an active event that is not the running one");
      active_rearm_at_ = at;
      active_rearm_seq_ = next_seq_++;
      active_no_rearm_ = false;
      return;
    case Where::kWheel:
      UnlinkWheel(node);
      break;
    case Where::kBatch:
      batch_dirty_ = true;  // The old batch entry goes stale (seq changes).
      break;
    case Where::kNear:
    case Where::kOverflow:
      // The old heap entry goes stale (seq changes) and is dropped on pop.
      break;
    case Where::kDormant:
      break;
    case Where::kFree:
      TABLEAU_CHECK_MSG(false, "Arm() on a freed event");
      return;
  }
  ref.time = at;
  ref.seq = next_seq_++;
  Insert(node);
}

void Simulation::Disarm(EventId id) {
  const std::int32_t node = Resolve(id);
  if (node == kNil) {
    return;
  }
  EventNode& ref = NodeRef(node);
  switch (ref.where) {
    case Where::kActive:
      TABLEAU_CHECK_MSG(node == active_node_,
                        "Disarm() on an active event that is not the running one");
      active_no_rearm_ = true;
      active_rearm_at_ = kTimeNever;
      return;
    case Where::kDormant:
      return;
    case Where::kWheel:
      UnlinkWheel(node);
      break;
    case Where::kBatch:
      batch_dirty_ = true;  // Batch entry goes stale.
      break;
    case Where::kNear:
    case Where::kOverflow:
      break;  // Heap entry goes stale.
    case Where::kFree:
      return;
  }
  if (ref.persistent) {
    ref.where = Where::kDormant;
  } else {
    FreeNode(node);
  }
}

void Simulation::Cancel(EventId id) {
  const std::int32_t node = Resolve(id);
  if (node == kNil) {
    return;  // Already fired or already cancelled: no-op, no tombstone.
  }
  EventNode& ref = NodeRef(node);
  switch (ref.where) {
    case Where::kActive:
      TABLEAU_CHECK_MSG(node == active_node_,
                        "Cancel() on an active event that is not the running one");
      active_kill_ = true;
      return;
    case Where::kWheel:
      UnlinkWheel(node);
      break;
    case Where::kBatch:
      batch_dirty_ = true;  // Batch entry goes stale (generation bump).
      break;
    case Where::kDormant:
    case Where::kNear:
    case Where::kOverflow:
      break;
    case Where::kFree:
      return;
  }
  FreeNode(node);
}

void Simulation::CheckInvariantsForTest() const {
  for (int level = 0; level < kLevels; ++level) {
    const int shift = ShiftOf(level);
    for (int slot = 0; slot < kSlots; ++slot) {
      const bool bit = (occupied_[level][slot >> 6] >> (slot & 63)) & 1;
      TABLEAU_CHECK_MSG(bit == (wheel_[level][slot] != kNil),
                        "bitmap/list mismatch at level %d slot %d", level, slot);
      for (std::int32_t node = wheel_[level][slot]; node != kNil;
           node = NodeRef(node).next) {
        const EventNode& ref = NodeRef(node);
        TABLEAU_CHECK_MSG(ref.where == Where::kWheel, "non-wheel node in slot list");
        TABLEAU_CHECK_MSG(ref.level == level && ref.slot == slot,
                          "node filed at level %d slot %d, thinks %d/%d", level, slot,
                          ref.level, ref.slot);
        TABLEAU_CHECK_MSG(ref.time >= base_,
                          "wheel node behind cursor: t=%lld base=%lld level=%d slot=%d",
                          static_cast<long long>(ref.time),
                          static_cast<long long>(base_), level, slot);
        TABLEAU_CHECK_MSG((ref.time >> (shift + kSlotBits)) == (base_ >> (shift + kSlotBits)),
                          "node out of its level's rotation: t=%lld base=%lld level=%d",
                          static_cast<long long>(ref.time),
                          static_cast<long long>(base_), level);
        TABLEAU_CHECK_MSG(static_cast<int>((ref.time >> shift) & (kSlots - 1)) == slot,
                          "node slot index mismatch at level %d", level);
      }
    }
  }
  // The unconsumed batch tail must be sorted by (time, seq) and strictly
  // behind the cursor.
  for (std::size_t i = batch_pos_; i + 1 < batch_end_; ++i) {
    TABLEAU_CHECK_MSG(!EntryAfter(batch_[i].time, batch_[i].seq, batch_[i + 1].time,
                                  batch_[i + 1].seq),
                      "batch entries out of (time, seq) order at %zu", i);
  }
  for (std::size_t i = batch_pos_; i < batch_end_; ++i) {
    TABLEAU_CHECK_MSG(batch_[i].time < base_, "batch entry at/after cursor");
  }
  // Every batch/heap-resident node must have exactly one live entry in its
  // container; a node with none would be stranded and fire late (or never).
  const std::int32_t total = static_cast<std::int32_t>(chunks_.size() * kChunkSize);
  for (std::int32_t node = 0; node < total; ++node) {
    const EventNode& ref = NodeRef(node);
    if (ref.where == Where::kBatch) {
      int matches = 0;
      for (std::size_t i = batch_pos_; i < batch_end_; ++i) {
        if (batch_[i].node == node && batch_[i].seq == ref.seq) {
          TABLEAU_CHECK_MSG(batch_[i].time == ref.time, "batch entry time desynced from node");
          ++matches;
        }
      }
      TABLEAU_CHECK_MSG(matches == 1, "node %d in batch has %d live entries", node, matches);
      continue;
    }
    if (ref.where != Where::kNear && ref.where != Where::kOverflow) {
      continue;
    }
    const std::vector<HeapEntry>& heap = ref.where == Where::kNear ? near_ : overflow_;
    int matches = 0;
    for (const HeapEntry& entry : heap) {
      if (entry.id == IdOf(node) && entry.seq == ref.seq) {
        TABLEAU_CHECK_MSG(entry.time == ref.time, "heap entry time desynced from node");
        ++matches;
      }
    }
    TABLEAU_CHECK_MSG(matches == 1, "node %d in %s has %d live heap entries", node,
                      ref.where == Where::kNear ? "near" : "overflow", matches);
  }
}

void Simulation::RunUntil(TimeNs until) {
  TABLEAU_CHECK_MSG(active_node_ == kNil, "RunUntil called from inside an event");
  while (PopAndRunNext(until)) {
  }
  now_ = until;
}

void Simulation::RunAll() {
  TABLEAU_CHECK_MSG(active_node_ == kNil, "RunAll called from inside an event");
  while (PopAndRunNext(kTimeNever)) {
  }
}

}  // namespace tableau
