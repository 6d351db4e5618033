// Scheduler-overhead primitives and accounting.
//
// The paper measures the runtime cost of three scheduler operations
// (schedule, wakeup, post-deschedule "migrate" work) with tracepoints inside
// Xen (Tables 1 and 2). We reproduce this with a calibrated cost model:
// every scheduler implementation charges the primitive operations its logic
// actually performs (runqueue scans, lock acquisitions, remote cache-line
// transfers, IPIs, timer reprogramming). Charged costs consume simulated CPU
// time — they delay guest execution — so scheduler overhead degrades guest
// throughput exactly as on real hardware, and Tables 1-2 fall out of the
// simulated tracepoint samples (the machine.sched_op.* metrics).
#ifndef SRC_HYPERVISOR_OVERHEAD_H_
#define SRC_HYPERVISOR_OVERHEAD_H_

#include "src/common/time.h"

namespace tableau {

// Primitive cost constants (calibrated once against Table 1's ordering; see
// DESIGN.md "Overhead model").
struct OverheadCosts {
  // Fixed cost of entering the scheduler (softirq dispatch, accounting).
  TimeNs sched_entry = 1100;
  // Fixed cost of processing a wake-up (event-channel demux, vCPU state).
  TimeNs wakeup_entry = 600;
  // Touching a data structure resident in the local cache.
  TimeNs cache_local = 30;
  // Cache line owned by another core on the same socket.
  TimeNs cache_same_socket = 100;
  // Cache line owned by a core on a remote socket.
  TimeNs cache_remote_socket = 300;
  // Uncontended spinlock acquire + release.
  TimeNs lock_base = 80;
  // Inspecting / reordering one runqueue entry.
  TimeNs runq_entry = 60;
  // Reprogramming the per-CPU timer.
  TimeNs timer_program = 150;
  // Sending an IPI (cost on the sender).
  TimeNs ipi_send = 250;
  // IPI delivery latency (delay until the remote core reacts).
  TimeNs ipi_latency = 1200;
  // Switching vCPU context (register state, FPU, stack).
  TimeNs context_switch = 1000;
};

// Scheduler operations traced for Tables 1-2.
enum class SchedOp { kSchedule = 0, kWakeup = 1, kMigrate = 2 };
inline constexpr int kNumSchedOps = 3;

inline const char* SchedOpName(SchedOp op) {
  switch (op) {
    case SchedOp::kSchedule:
      return "Schedule";
    case SchedOp::kWakeup:
      return "Wakeup";
    case SchedOp::kMigrate:
      return "Migrate";
  }
  return "?";
}

// The machine metric (a LatencyHistogram of per-invocation cost in ns) that
// records every `op`: the simulated tracepoint behind Tables 1-2.
inline const char* SchedOpMetric(SchedOp op) {
  switch (op) {
    case SchedOp::kSchedule:
      return "machine.sched_op.schedule_ns";
    case SchedOp::kWakeup:
      return "machine.sched_op.wakeup_ns";
    case SchedOp::kMigrate:
      return "machine.sched_op.migrate_ns";
  }
  return "?";
}

// Exact serialization model of a contended lock inside the DES: each
// acquisition waits for the previous holder's critical section to end. With
// frequent scheduler invocations on many cores, queueing delay grows — this
// is what makes RTDS's global lock collapse on the 48-core machine (Table 2).
class LockModel {
 public:
  // Returns the total cost (queueing delay + hold time) of acquiring the
  // lock at `now` and holding it for `hold` ns, and advances the lock state.
  TimeNs Acquire(TimeNs now, TimeNs hold) {
    const TimeNs wait = free_at_ > now ? free_at_ - now : 0;
    free_at_ = now + wait + hold;
    return wait + hold;
  }

  struct Acquisition {
    TimeNs cost = 0;
    bool acquired = false;
  };

  // Trylock-with-backoff pattern: spin for at most `patience`; if the lock
  // would take longer, give up (the caller skips or degrades its critical
  // section, as Xen's contended paths do). The spin time is still paid.
  // This is what differentiates RTDS's op costs under saturation: paths
  // that *must* complete (queue reinsertion on deschedule) wait far longer
  // than paths that can shed work (Table 2).
  Acquisition AcquireWithPatience(TimeNs now, TimeNs hold, TimeNs patience) {
    const TimeNs wait = free_at_ > now ? free_at_ - now : 0;
    if (wait > patience) {
      return Acquisition{patience, false};
    }
    free_at_ = now + wait + hold;
    return Acquisition{wait + hold, true};
  }

  void Reset() { free_at_ = 0; }

 private:
  TimeNs free_at_ = 0;
};

}  // namespace tableau

#endif  // SRC_HYPERVISOR_OVERHEAD_H_
