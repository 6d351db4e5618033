#include "src/core/dispatcher.h"

#include <algorithm>

#include "src/common/check.h"

namespace tableau {

TableauDispatcher::TableauDispatcher(int num_cpus, Config config)
    : num_cpus_(num_cpus), config_(config) {
  TABLEAU_CHECK(num_cpus_ > 0);
  second_level_.resize(static_cast<std::size_t>(num_cpus_));
}

void TableauDispatcher::InstallTable(std::shared_ptr<const SchedulingTable> table,
                                     TimeNs now) {
  TABLEAU_CHECK(table != nullptr);
  TABLEAU_CHECK(table->num_cpus() >= num_cpus_);
  if (current_ == nullptr) {
    current_ = std::move(table);
    ++generation_;
    BuildTimelines();
    return;
  }
  // Time-synchronized switch: the planner times the next_table pointers to
  // be set in the middle of the next round of the current table, so every
  // core observes them before the wrap that follows — all cores switch at
  // that wrap, two rounds out at most.
  const TimeNs len = current_->length();
  const TimeNs proposed = (now / len + 2) * len;
  if (next_ != nullptr) {
    // Re-install during a pending switch: the new table supersedes the
    // still-pending one, but the switch time may only stay or move later.
    // Cores have already been handed slot_ends clamped to the promised
    // switch_at_; pulling it earlier (possible when `now` runs behind the
    // first install, e.g. observed from a core with a lagging clock) would
    // switch tables inside an interval a core believes it owns.
    switch_at_ = std::max(switch_at_, proposed);
  } else {
    switch_at_ = proposed;
  }
  next_ = std::move(table);
}

void TableauDispatcher::AttachMetrics(obs::MetricsRegistry* registry) {
  TABLEAU_CHECK(registry != nullptr);
  m_table_switches_ = registry->GetCounter("tableau.table_switches");
  m_switch_rearms_ = registry->GetCounter("tableau.switch_rearms");
  m_switch_slip_ns_ = registry->GetHistogram("tableau.switch_slip_ns");
}

const SchedulingTable& TableauDispatcher::ActiveTable(TimeNs now) {
  TABLEAU_CHECK_MSG(current_ != nullptr, "no table installed");
  if (next_ != nullptr && now >= switch_at_) {
    if (config_.switch_slip_tolerance != kTimeNever &&
        now - switch_at_ > config_.switch_slip_tolerance) {
      // Deadline missed by more than the tolerance: promoting now would put
      // this core on the new table mid-round while peers may still be
      // handing out slots from the old one. Re-arm at the next wrap of the
      // current table and switch there, synchronized again.
      const TimeNs len = current_->length();
      switch_at_ = (now / len + 1) * len;
      if (m_switch_rearms_ != nullptr) {
        m_switch_rearms_->Increment();
      }
      return *current_;
    }
    last_switch_slip_ = now - switch_at_;
    if (m_table_switches_ != nullptr) {
      m_table_switches_->Increment();
      m_switch_slip_ns_->Record(last_switch_slip_);
    }
    current_ = std::move(next_);
    next_ = nullptr;
    switch_at_ = kTimeNever;
    ++generation_;
    BuildTimelines();
    // The old table is released here: "garbage collected two rounds after
    // the new table has been uploaded".
  }
  return *current_;
}

void TableauDispatcher::BuildTimelines() {
  timelines_.clear();
  for (int c = 0; c < current_->num_cpus(); ++c) {
    // Each pCPU lists its vCPUs once.
    for (const VcpuId vcpu : current_->cpu(c).local_vcpus) {
      if (vcpu < 0) {
        continue;
      }
      const auto id = static_cast<std::size_t>(vcpu);
      if (id >= timelines_.size()) {
        timelines_.resize(id + 1);
      }
      timelines_[id].split = timelines_[id].cpu >= 0;  // Listed on an earlier pCPU too.
      timelines_[id].cpu = c;
    }
  }
  for (int c = 0; c < current_->num_cpus(); ++c) {
    for (const Allocation& alloc : current_->cpu(c).allocations) {
      if (TimelineOf(alloc.vcpu).split) {
        timelines_[static_cast<std::size_t>(alloc.vcpu)].entries.push_back(
            VcpuTimeline::Entry{alloc.start, c});
      }
    }
  }
  for (VcpuTimeline& timeline : timelines_) {
    std::sort(timeline.entries.begin(), timeline.entries.end(),
              [](const VcpuTimeline::Entry& a, const VcpuTimeline::Entry& b) {
                return a.start < b.start;
              });
  }
}

const TableauDispatcher::VcpuTimeline& TableauDispatcher::TimelineOf(VcpuId vcpu) const {
  static const VcpuTimeline kAbsent;
  return vcpu >= 0 && static_cast<std::size_t>(vcpu) < timelines_.size()
             ? timelines_[static_cast<std::size_t>(vcpu)]
             : kAbsent;
}

TableauDispatcher::SlotInfo TableauDispatcher::LookupSlot(int cpu, TimeNs now) {
  const SchedulingTable& table = ActiveTable(now);
  const TimeNs len = table.length();
  const TimeNs offset = now % len;
  const LookupResult lookup = table.Lookup(cpu, offset);
  SlotInfo slot;
  slot.vcpu = lookup.vcpu;
  slot.slot_end = now - offset + lookup.interval_end;
  if (next_ != nullptr && switch_at_ > now) {
    slot.slot_end = std::min(slot.slot_end, switch_at_);
  }
  return slot;
}

TableauDispatcher::SecondLevelPick TableauDispatcher::PickSecondLevel(
    int cpu, TimeNs now, TimeNs slot_end, const std::function<bool(VcpuId)>& eligible) {
  const SchedulingTable& table = ActiveTable(now);
  const std::vector<VcpuId>& locals = table.cpu(cpu).local_vcpus;
  SecondLevelState& state = second_level_[static_cast<std::size_t>(cpu)];

  SecondLevelPick pick;
  pick.vcpu = kIdleVcpu;
  pick.until = slot_end;
  if (!config_.work_conserving) {
    return pick;
  }

  auto find_best = [&]() {
    VcpuId best = kIdleVcpu;
    TimeNs best_budget = 0;
    for (const VcpuId vcpu : locals) {
      if (!SecondLevelLocal(vcpu, cpu, now) || !eligible(vcpu)) {
        continue;
      }
      const auto it = state.budgets.find(vcpu);
      const TimeNs budget = it == state.budgets.end() ? 0 : it->second;
      if (budget > best_budget) {
        best = vcpu;
        best_budget = budget;
      }
    }
    return std::pair<VcpuId, TimeNs>(best, best_budget);
  };

  auto [best, budget] = find_best();
  if (best == kIdleVcpu) {
    // All eligible budgets exhausted (or first use): replenish by dividing
    // the epoch evenly among the currently eligible vCPUs, then retry.
    int count = 0;
    for (const VcpuId vcpu : locals) {
      if (SecondLevelLocal(vcpu, cpu, now) && eligible(vcpu)) {
        ++count;
      }
    }
    if (count == 0) {
      return pick;  // Nothing runnable: idle.
    }
    const TimeNs share = kSecondLevelEpochNs / count;
    for (const VcpuId vcpu : locals) {
      if (SecondLevelLocal(vcpu, cpu, now) && eligible(vcpu)) {
        state.budgets[vcpu] = std::max<TimeNs>(share, 1);
      }
    }
    std::tie(best, budget) = find_best();
    TABLEAU_CHECK(best != kIdleVcpu);
  }
  pick.vcpu = best;
  // Floor the grant at the enforceability threshold so dispatch overhead can
  // never outpace budget consumption.
  pick.until = std::min(slot_end, now + std::max(budget, kMinGrantNs));
  return pick;
}

void TableauDispatcher::AccrueSecondLevel(int cpu, VcpuId vcpu, TimeNs amount) {
  SecondLevelState& state = second_level_[static_cast<std::size_t>(cpu)];
  const auto it = state.budgets.find(vcpu);
  if (it != state.budgets.end()) {
    it->second = std::max<TimeNs>(0, it->second - amount);
  }
}

int TableauDispatcher::WakeupTargetCpu(VcpuId vcpu, TimeNs now) {
  const SchedulingTable& table = ActiveTable(now);
  const VcpuTimeline& timeline = TimelineOf(vcpu);
  if (!timeline.split) {
    return timeline.cpu;
  }
  const std::vector<VcpuTimeline::Entry>& entries = timeline.entries;
  const TimeNs offset = now % table.length();
  // Last entry with start <= offset; if none, wrap to the final entry of the
  // previous cycle.
  auto upper = std::upper_bound(
      entries.begin(), entries.end(), offset,
      [](TimeNs t, const VcpuTimeline::Entry& e) { return t < e.start; });
  if (upper == entries.begin()) {
    return entries.back().cpu;
  }
  return std::prev(upper)->cpu;
}

bool TableauDispatcher::InOwnSlot(VcpuId vcpu, int cpu, TimeNs now) {
  const SlotInfo slot = LookupSlot(cpu, now);
  return slot.vcpu == vcpu;
}

bool TableauDispatcher::IsSplit(VcpuId vcpu) { return TimelineOf(vcpu).split; }

bool TableauDispatcher::SecondLevelLocal(VcpuId vcpu, int cpu, TimeNs now) {
  if (!IsSplit(vcpu)) {
    return true;
  }
  if (!config_.split_participation) {
    return false;
  }
  // Trailing-core policy: only where the vCPU last had (or currently has) a
  // guaranteed allocation, avoiding any cross-core synchronization.
  return WakeupTargetCpu(vcpu, now) == cpu;
}

}  // namespace tableau
