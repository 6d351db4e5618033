#include "src/obs/attribution.h"

#include <algorithm>

#include "src/common/check.h"

namespace tableau::obs {

const char* LatencyComponentName(LatencyComponent component) {
  switch (component) {
    case LatencyComponent::kService:
      return "service";
    case LatencyComponent::kWakeQueue:
      return "wake_queue";
    case LatencyComponent::kPreempt:
      return "preempt";
    case LatencyComponent::kBlackout:
      return "blackout";
    case LatencyComponent::kSwitchSlip:
      return "switch_slip";
    case LatencyComponent::kBlocked:
      return "blocked";
    case LatencyComponent::kNetwork:
      return "network";
  }
  return "?";
}

void LatencyAttributor::Bind(int num_vcpus, bool table_driven, TimeNs start) {
  TABLEAU_CHECK(states_.empty());
  table_driven_ = table_driven;
  states_.resize(static_cast<std::size_t>(num_vcpus));
  for (VcpuState& state : states_) {
    state.component = LatencyComponent::kBlocked;
    state.since = start;
  }
}

AttributedInterval LatencyAttributor::SettleAndSwitch(int vcpu, TimeNs now,
                                                      LatencyComponent next) {
  VcpuState& state = states_[static_cast<std::size_t>(vcpu)];
  const AttributedInterval settled{state.component, state.since, now};
  state.totals[state.component] += now - state.since;
  state.component = next;
  state.since = now;
  return settled;
}

AttributedInterval LatencyAttributor::OnWakeup(int vcpu, TimeNs now) {
  if (states_[static_cast<std::size_t>(vcpu)].component !=
      LatencyComponent::kBlocked) {
    return AttributedInterval{LatencyComponent::kBlocked, now, now};
  }
  return SettleAndSwitch(vcpu, now, LatencyComponent::kWakeQueue);
}

AttributedInterval LatencyAttributor::OnDispatch(int vcpu, TimeNs now) {
  return SettleAndSwitch(vcpu, now, LatencyComponent::kService);
}

AttributedInterval LatencyAttributor::OnDeschedule(int vcpu, TimeNs now) {
  return SettleAndSwitch(vcpu, now,
                         table_driven_ ? LatencyComponent::kBlackout
                                       : LatencyComponent::kPreempt);
}

AttributedInterval LatencyAttributor::OnBlock(int vcpu, TimeNs now) {
  return SettleAndSwitch(vcpu, now, LatencyComponent::kBlocked);
}

SlipSplit LatencyAttributor::ReattributeSlip(int vcpu, TimeNs now,
                                             TimeNs slip) {
  VcpuState& state = states_[static_cast<std::size_t>(vcpu)];
  SlipSplit split;
  if (slip <= 0 || (state.component != LatencyComponent::kWakeQueue &&
                    state.component != LatencyComponent::kBlackout)) {
    split.head = AttributedInterval{state.component, now, now};
    split.tail = AttributedInterval{LatencyComponent::kSwitchSlip, now, now};
    return split;
  }
  const TimeNs boundary = std::max(state.since, now - slip);
  split.head = AttributedInterval{state.component, state.since, boundary};
  split.tail = AttributedInterval{LatencyComponent::kSwitchSlip, boundary, now};
  state.totals[state.component] += boundary - state.since;
  state.totals[LatencyComponent::kSwitchSlip] += now - boundary;
  state.since = now;
  return split;
}

LatencyBreakdown LatencyAttributor::TotalsAt(int vcpu, TimeNs t) const {
  const VcpuState& state = states_[static_cast<std::size_t>(vcpu)];
  LatencyBreakdown totals = state.totals;
  totals[state.component] += t - state.since;
  return totals;
}

}  // namespace tableau::obs
