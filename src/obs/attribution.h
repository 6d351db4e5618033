// Causal latency attribution: an exact time-partitioning state machine per
// vCPU. Every simulated nanosecond of a vCPU's life is assigned to exactly
// one latency component — service, wakeup→first-dispatch queueing, runnable
// preemption, table blackout, table-switch slip, or blocked — so the
// component breakdown of any interval [a, b) sums to exactly b - a. Request
// spans subtract the breakdown captured at request arrival from the one at
// completion (plus a workload-supplied network component), which is how the
// telemetry layer proves "components sum to measured latency" as an exact
// integer identity rather than an approximation (see DESIGN.md "Telemetry &
// SLO tracking").
//
// The attributor is driven from Machine's trace hooks and is a pure
// observer: it never schedules simulation events and never allocates after
// Bind.
#ifndef SRC_OBS_ATTRIBUTION_H_
#define SRC_OBS_ATTRIBUTION_H_

#include <array>
#include <vector>

#include "src/common/time.h"

namespace tableau::obs {

// Where a vCPU's (or a request's) time went. kService through kBlocked are
// the attributor's machine states; kSwitchSlip is a reattribution-only
// bucket (time a waiting vCPU lost to a late table switch); kNetwork is
// supplied by the workload for the wire legs outside the machine.
enum class LatencyComponent : int {
  kService = 0,
  kWakeQueue,   // Wakeup to first dispatch.
  kPreempt,     // Runnable but descheduled, work-conserving scheduler.
  kBlackout,    // Runnable but descheduled, table-driven scheduler.
  kSwitchSlip,  // Waiting time re-attributed to a late table switch.
  kBlocked,
  kNetwork,
};

inline constexpr int kNumLatencyComponents = 7;

const char* LatencyComponentName(LatencyComponent component);

// Nanoseconds per component. Closed under += and -; Total() of a breakdown
// produced by subtracting two TotalsAt captures equals the elapsed time
// between them exactly.
struct LatencyBreakdown {
  std::array<TimeNs, kNumLatencyComponents> ns = {};

  TimeNs& operator[](LatencyComponent c) { return ns[static_cast<int>(c)]; }
  TimeNs operator[](LatencyComponent c) const {
    return ns[static_cast<int>(c)];
  }

  TimeNs Total() const {
    TimeNs total = 0;
    for (const TimeNs v : ns) {
      total += v;
    }
    return total;
  }

  LatencyBreakdown& operator+=(const LatencyBreakdown& other) {
    for (int i = 0; i < kNumLatencyComponents; ++i) {
      ns[static_cast<std::size_t>(i)] += other.ns[static_cast<std::size_t>(i)];
    }
    return *this;
  }
  friend LatencyBreakdown operator-(LatencyBreakdown a,
                                    const LatencyBreakdown& b) {
    for (int i = 0; i < kNumLatencyComponents; ++i) {
      a.ns[static_cast<std::size_t>(i)] -= b.ns[static_cast<std::size_t>(i)];
    }
    return a;
  }

  bool operator==(const LatencyBreakdown&) const = default;
};

// One settled interval, reported back to the caller so windowed series can
// ingest it (AddRange) at the moment it closes. Empty (from == to) when a
// hook had nothing to settle.
struct AttributedInterval {
  LatencyComponent component = LatencyComponent::kBlocked;
  TimeNs from = 0;
  TimeNs to = 0;

  TimeNs duration() const { return to - from; }
  bool empty() const { return to <= from; }
};

// The two pieces a slip reattribution splits a waiting interval into: the
// head keeps the waiting state's component, the tail becomes kSwitchSlip.
struct SlipSplit {
  AttributedInterval head;
  AttributedInterval tail;
};

class LatencyAttributor {
 public:
  // Allocates per-vCPU state (the only allocation). `table_driven` selects
  // how runnable-but-descheduled time is classified: kBlackout under a
  // table-driven scheduler, kPreempt under a work-conserving one. All vCPUs
  // start kBlocked as of `start`.
  void Bind(int num_vcpus, bool table_driven, TimeNs start);
  bool bound() const { return !states_.empty(); }
  int num_vcpus() const { return static_cast<int>(states_.size()); }

  // --- Machine hooks (hot path, zero allocation) ---
  // Each settles the vCPU's current state up to `now`, transitions, and
  // returns the interval just settled.

  // Blocked -> wake queue. A wakeup in any other state is a no-op (the vCPU
  // is already runnable or running); returns an empty interval.
  AttributedInterval OnWakeup(int vcpu, TimeNs now);
  // Any state -> service.
  AttributedInterval OnDispatch(int vcpu, TimeNs now);
  // Service -> blackout (table-driven) or preempt (work-conserving): the
  // vCPU is still runnable but loses the pCPU.
  AttributedInterval OnDeschedule(int vcpu, TimeNs now);
  // Any state -> blocked.
  AttributedInterval OnBlock(int vcpu, TimeNs now);

  // Table switch committed at `now`, `slip` ns late: for a vCPU currently
  // waiting (wake queue or blackout), the trailing min(slip, waited) ns of
  // its wait were caused by the slip — re-attribute them to kSwitchSlip.
  // Other states are untouched (empty split). The vCPU's state machine
  // continues in its waiting state with since = now.
  SlipSplit ReattributeSlip(int vcpu, TimeNs now, TimeNs slip);

  // Cumulative per-component totals as of `t`, including the in-progress
  // state's [since, t) partial. For any t2 >= t1,
  // (TotalsAt(v, t2) - TotalsAt(v, t1)).Total() == t2 - t1 exactly.
  LatencyBreakdown TotalsAt(int vcpu, TimeNs t) const;

  LatencyComponent StateOf(int vcpu) const {
    return states_[static_cast<std::size_t>(vcpu)].component;
  }

 private:
  struct VcpuState {
    LatencyComponent component = LatencyComponent::kBlocked;
    TimeNs since = 0;
    LatencyBreakdown totals;
  };

  AttributedInterval SettleAndSwitch(int vcpu, TimeNs now,
                                     LatencyComponent next);

  bool table_driven_ = false;
  std::vector<VcpuState> states_;
};

}  // namespace tableau::obs

#endif  // SRC_OBS_ATTRIBUTION_H_
