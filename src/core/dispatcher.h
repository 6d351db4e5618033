// The Tableau dispatcher (paper Secs. 4 and 6): the hypervisor-resident,
// core-local, table-driven first-level scheduler plus the epoch-based
// round-robin second-level scheduler, the lock-free time-synchronized table
// switch protocol, and table-guided wake-up targeting.
//
// This class holds all Tableau runtime policy but is engine-agnostic: the
// hypervisor adapter (src/schedulers/tableau_scheduler.*) wires it to the
// simulated machine. Runnability is supplied through callbacks so the
// dispatcher can also be unit-tested standalone.
#ifndef SRC_CORE_DISPATCHER_H_
#define SRC_CORE_DISPATCHER_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/common/time.h"
#include "src/obs/metrics.h"
#include "src/table/scheduling_table.h"

namespace tableau {

// Minimum second-level grant (matches the 100 us enforceability threshold).
inline constexpr TimeNs kMinGrantNs = 100 * kMicrosecond;
// Epoch length of the second-level fair-share scheduler: the epoch is
// divided evenly among runnable core-local vCPUs.
inline constexpr TimeNs kSecondLevelEpochNs = 10 * kMillisecond;

class TableauDispatcher {
 public:
  struct Config {
    // Enables the second-level scheduler (the "uncapped" scenario). When
    // false, idle or blocked table slots stay idle (the "capped" scenario).
    bool work_conserving = true;
    // Second-level participation of split (migrating) vCPUs via the
    // "trailing core" policy (Sec. 5): the vCPU takes part only on the pCPU
    // where it last received a guaranteed allocation. The paper's prototype
    // omits this ("not a major limitation"); off by default to match.
    bool split_participation = false;
    // Graceful degradation for a missed table-switch deadline: if the first
    // lookup to observe a pending switch arrives more than this far past the
    // promised switch_at_ (timer jitter, coalescing, a fault-delayed core),
    // the switch re-arms at the next wrap of the *current* table instead of
    // promoting late — keeping the cores' wrap-synchronized switch invariant
    // at the cost of one more round on the old table. kTimeNever (the
    // default) disables the policy: late switches promote immediately,
    // byte-identical to the pre-fault engine.
    TimeNs switch_slip_tolerance = kTimeNever;
  };

  TableauDispatcher(int num_cpus, Config config);

  // Installs a table. The first installation takes effect immediately; later
  // installations follow the time-synchronized switch protocol: the
  // next_table pointer is "set" in the middle of the next round of the
  // current table, and all cores switch together at the wrap after that.
  // Re-installing while a switch is still pending replaces the pending table
  // (the latest install wins) but never moves the promised switch time
  // earlier: switch_at_ keeps the later of the two wrap times.
  void InstallTable(std::shared_ptr<const SchedulingTable> table, TimeNs now);

  // The table currently in effect at `now` (promotes a pending switch).
  const SchedulingTable& ActiveTable(TimeNs now);

  // Absolute time of the pending table switch, or kTimeNever.
  TimeNs pending_switch_time() const { return next_ ? switch_at_ : kTimeNever; }

  // First-level lookup: the reserved vCPU (or kIdleVcpu) covering `now` on
  // `cpu` and the absolute end of the current interval (clamped to a pending
  // table switch). O(1) via the slice table.
  struct SlotInfo {
    VcpuId vcpu = kIdleVcpu;
    TimeNs slot_end = 0;
  };
  SlotInfo LookupSlot(int cpu, TimeNs now);

  // Second-level pick among core-local vCPUs for which `eligible` returns
  // true: highest remaining budget first; budgets replenish to
  // epoch / #eligible when all eligible budgets are exhausted. Returns
  // kIdleVcpu if no eligible vCPU exists. `until` is the absolute time the
  // pick is valid to (budget depletion or slot end, whichever is first).
  struct SecondLevelPick {
    VcpuId vcpu = kIdleVcpu;
    TimeNs until = 0;
  };
  SecondLevelPick PickSecondLevel(int cpu, TimeNs now, TimeNs slot_end,
                                  const std::function<bool(VcpuId)>& eligible);

  // Burns second-level budget for a vCPU that ran `amount` ns on `cpu` from
  // a second-level decision.
  void AccrueSecondLevel(int cpu, VcpuId vcpu, TimeNs amount);

  // Wake-up targeting (Sec. 6, "Efficient wake-ups"): the CPU on which
  // `vcpu` has an allocation covering `now`, or the CPU of its most recent
  // allocation (cyclically) otherwise. Returns -1 for unknown vCPUs. O(1)
  // for a vCPU on one pCPU; a split vCPU binary-searches its allocations.
  int WakeupTargetCpu(VcpuId vcpu, TimeNs now);

  // True if the vCPU's current allocation (in the active table) covers `now`.
  bool InOwnSlot(VcpuId vcpu, int cpu, TimeNs now);

  // Whether the vCPU has allocations on more than one core (split by C=D or
  // cluster scheduling). Split vCPUs take part in second-level scheduling
  // only under the trailing-core policy (config.split_participation).
  bool IsSplit(VcpuId vcpu);

  // True if `vcpu` may take part in second-level scheduling on `cpu` at
  // `now`: always for single-core vCPUs; for split vCPUs only with
  // split_participation enabled and only on the trailing core.
  bool SecondLevelLocal(VcpuId vcpu, int cpu, TimeNs now);

  const Config& config() const { return config_; }

  // Monotonic count of tables that have taken effect (first install = 1).
  // Lets callers detect promotions (e.g. to emit a table-switch trace event).
  std::uint64_t table_generation() const { return generation_; }

  // Slip of the most recent promotion: how far past the promised switch_at_
  // the promoting lookup arrived. Valid after a generation change; used by
  // the telemetry layer to re-attribute waiting time to the late switch.
  TimeNs last_switch_slip() const { return last_switch_slip_; }

  // Registers dispatcher metrics on `registry` (tableau.table_switches,
  // tableau.switch_slip_ns — the lag between the promised switch time and
  // the lookup that promoted it — and tableau.switch_rearms, switches pushed
  // to the next wrap by the slip-tolerance policy). Call once, before the
  // first lookup; without it the dispatcher records nothing.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  // Where a vCPU's allocations lie in the active table.
  struct VcpuTimeline {
    struct Entry {
      TimeNs start;
      int cpu;
    };
    int cpu = -1;        // pCPU of its allocations; -1: none in the table.
    bool split = false;  // Allocations on more than one pCPU.
    // Every allocation, sorted by start; kept only for a split vCPU, whose
    // wake-up target depends on the time.
    std::vector<Entry> entries;
  };

  struct SecondLevelState {
    std::map<VcpuId, TimeNs> budgets;
  };

  void BuildTimelines();
  // The vCPU's timeline; one with cpu -1 for an id with no allocation.
  const VcpuTimeline& TimelineOf(VcpuId vcpu) const;

  const int num_cpus_;
  const Config config_;

  std::shared_ptr<const SchedulingTable> current_;
  std::shared_ptr<const SchedulingTable> next_;
  TimeNs switch_at_ = kTimeNever;
  std::uint64_t generation_ = 0;
  TimeNs last_switch_slip_ = 0;

  std::vector<VcpuTimeline> timelines_;  // Indexed by vCPU id, for the active table.
  std::vector<SecondLevelState> second_level_;

  obs::Counter* m_table_switches_ = nullptr;
  obs::Counter* m_switch_rearms_ = nullptr;
  obs::LatencyHistogram* m_switch_slip_ns_ = nullptr;
};

}  // namespace tableau

#endif  // SRC_CORE_DISPATCHER_H_
