#include "src/schedulers/rtds.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/rt/hyperperiod.h"

namespace tableau {

void RtdsScheduler::AddVcpu(Vcpu* vcpu) {
  const auto id = static_cast<std::size_t>(vcpu->id());
  if (info_.size() <= id) {
    info_.resize(id + 1);
  }
  VcpuInfo& info = info_[id];
  info.vcpu = vcpu;

  // Derive (budget, period) from the reservation exactly as Tableau's
  // planner does, per the paper's "configured to match" setup.
  VcpuRequest request;
  request.vcpu = vcpu->id();
  request.utilization = vcpu->params().utilization;
  request.latency_goal = vcpu->params().latency_goal;
  const std::optional<TaskMapping> mapping = MapRequestToTask(request);
  TABLEAU_CHECK_MSG(mapping.has_value(), "RTDS vCPU %d needs a (U, L) reservation",
                    vcpu->id());
  info.budget_max = mapping->task.cost;
  info.period = mapping->task.period;
  info.budget = info.budget_max;
  info.deadline = info.period;
}

void RtdsScheduler::Start() {
  // Stagger the period grid across vCPUs: in Xen, a vCPU's deadline is set
  // when it first wakes, so reservations are not phase-aligned. Without
  // this, all replenishments land on the same instants and the global lock
  // sees synchronized storms no real deployment would produce.
  const std::size_t count = info_.size();
  std::size_t index = 0;
  for (VcpuInfo& info : info_) {
    if (info.vcpu != nullptr) {
      info.deadline += static_cast<TimeNs>(index) * info.period /
                       static_cast<TimeNs>(count);
      ++index;
      const VcpuId id = info.vcpu->id();
      info.timer = machine_->sim().CreateTimer([this, id] { Replenish(id); });
      machine_->sim().Arm(info.timer, info.deadline);
    }
  }
}

void RtdsScheduler::Attach(Machine* machine) {
  VcpuScheduler::Attach(machine);
  obs::MetricsRegistry& metrics = machine->metrics();
  m_lock_acquire_ns_ = metrics.GetHistogram("rtds.lock_acquire_ns");
  m_lock_timeouts_ = metrics.GetCounter("rtds.lock_timeouts");
}

void RtdsScheduler::ChargeGlobalLockBounded(TimeNs hold, TimeNs patience) {
  const LockModel::Acquisition acq =
      global_lock_.AcquireWithPatience(machine_->Now(), hold, patience);
  m_lock_acquire_ns_->Record(acq.cost);
  if (!acq.acquired) {
    m_lock_timeouts_->Increment();
  }
  machine_->AddOpCost(acq.cost);
}

void RtdsScheduler::Replenish(VcpuId id) {
  VcpuInfo& info = info_[static_cast<std::size_t>(id)];
  const TimeNs now = machine_->Now();
  // Replenishment handler: RTDS batches replenishments in a dedicated timer
  // handler, so we charge a short fixed cost rather than a full lock round.
  const OverheadCosts& costs = machine_->config().costs;
  const CpuId on = info.vcpu->last_cpu() == kNoCpu ? 0 : info.vcpu->last_cpu();
  machine_->ChargeBackground(on, costs.lock_base + 2 * costs.cache_local);

  // Charge consumption so far against the old budget before refilling;
  // otherwise a vCPU running across its period boundary would have its
  // whole slice billed to the fresh budget.
  if (info.vcpu->running_on() != kNoCpu) {
    machine_->SettleAccounting(info.vcpu->running_on());
  }
  info.budget = info.budget_max;
  while (info.deadline <= now) {
    info.deadline += info.period;
  }
  // Mid-callback self re-arm: the engine assigns the FIFO sequence here (at
  // the call), so ordering against the Tickle kicks below is preserved.
  machine_->sim().Arm(info.timer, info.deadline);

  if (info.vcpu->runnable() && info.vcpu->running_on() == kNoCpu) {
    Tickle(info);
  }
}

void RtdsScheduler::Tickle(const VcpuInfo& info) {
  const OverheadCosts& costs = machine_->config().costs;
  // Scan all CPUs for an idle one, else the latest-deadline runner.
  machine_->AddOpCost(static_cast<TimeNs>(machine_->num_cpus()) * costs.cache_local);
  CpuId idle_cpu = kNoCpu;
  CpuId latest_cpu = kNoCpu;
  TimeNs latest_deadline = 0;
  for (CpuId cpu = 0; cpu < machine_->num_cpus(); ++cpu) {
    const Vcpu* running = machine_->RunningOn(cpu);
    if (running == nullptr) {
      idle_cpu = cpu;
      break;
    }
    const VcpuInfo& other = info_[static_cast<std::size_t>(running->id())];
    if (other.deadline > latest_deadline) {
      latest_deadline = other.deadline;
      latest_cpu = cpu;
    }
  }
  if (idle_cpu != kNoCpu) {
    machine_->KickCpu(idle_cpu, /*remote=*/true);
  } else if (latest_cpu != kNoCpu && info.deadline < latest_deadline) {
    machine_->KickCpu(latest_cpu, /*remote=*/true);
  }
}

Decision RtdsScheduler::PickNext(CpuId cpu) {
  (void)cpu;
  const OverheadCosts& costs = machine_->config().costs;
  // Global runqueue: lock + EDF scan over all registered vCPUs.
  // The schedule path degrades gracefully under contention (it can pick
  // from per-CPU cached state), so its spin patience is short.
  const TimeNs hold = costs.lock_base + costs.cache_remote_socket +
                      static_cast<TimeNs>(info_.size()) * costs.runq_entry / 12;
  ChargeGlobalLockBounded(hold, 3 * kMicrosecond);
  machine_->AddOpCost(costs.cache_remote_socket);

  const VcpuInfo* best = nullptr;
  for (const VcpuInfo& info : info_) {
    if (info.vcpu == nullptr || !info.vcpu->runnable() ||
        info.vcpu->running_on() != kNoCpu || info.budget <= 0) {
      continue;
    }
    if (best == nullptr || info.deadline < best->deadline) {
      best = &info;
    }
  }

  Decision decision;
  if (best == nullptr) {
    decision.vcpu = kIdleVcpu;
    decision.until = kTimeNever;  // Replenishments and wakeups tickle.
    return decision;
  }
  decision.vcpu = best->vcpu->id();
  // Budget accounting is microsecond-granular in RTDS; floor the slice so
  // dispatch overhead cannot outpace budget consumption.
  decision.until = machine_->Now() + std::max<TimeNs>(best->budget, 100 * kMicrosecond);
  return decision;
}

void RtdsScheduler::OnWakeup(Vcpu* vcpu) {
  VcpuInfo& info = info_[static_cast<std::size_t>(vcpu->id())];
  const OverheadCosts& costs = machine_->config().costs;
  // Runqueue + replenishment-queue updates under the global lock.
  const TimeNs hold = costs.lock_base + 4 * costs.cache_remote_socket +
                      static_cast<TimeNs>(info_.size()) * costs.runq_entry / 7;
  ChargeGlobalLockBounded(hold, 15 * kMicrosecond);

  const TimeNs now = machine_->Now();
  if (info.deadline <= now) {
    // Deadline passed while blocked: start a fresh period now.
    info.budget = info.budget_max;
    info.deadline = now + info.period;
  }
  if (info.budget > 0) {
    Tickle(info);
  }
}

void RtdsScheduler::OnBlock(Vcpu* vcpu, CpuId cpu) {
  (void)vcpu;
  (void)cpu;
  const OverheadCosts& costs = machine_->config().costs;
  ChargeGlobalLockBounded(costs.lock_base + costs.cache_remote_socket, 3 * kMicrosecond);
}

void RtdsScheduler::OnDeschedule(Vcpu* vcpu, CpuId cpu, DeschedReason reason) {
  (void)vcpu;
  (void)cpu;
  (void)reason;
  const OverheadCosts& costs = machine_->config().costs;
  // RTDS's post-schedule path re-inserts into the global runqueue, updates
  // the replenishment queue, and scans CPUs for a migration target, all
  // under the global lock — the hold time scales with machine size, and the
  // queueing behind other CPUs' acquisitions is what explodes on big
  // machines (Table 2).
  // Deadline-sorted runqueue reinsertion is a pointer-chasing walk over the
  // registered vCPUs, plus replenishment-queue maintenance and the CPU scan.
  // The deschedule path cannot shed its work (the vCPU must be reinserted
  // into the deadline queue), so it spins essentially until it wins.
  const TimeNs hold =
      costs.lock_base +
      static_cast<TimeNs>(machine_->num_cpus()) * costs.cache_same_socket +
      6 * static_cast<TimeNs>(info_.size()) * costs.runq_entry / 5;
  ChargeGlobalLockBounded(hold, 170 * kMicrosecond);
  machine_->AddOpCost(2 * costs.cache_remote_socket);
}

void RtdsScheduler::OnServiceAccrued(Vcpu* vcpu, CpuId cpu, TimeNs amount) {
  (void)cpu;
  VcpuInfo& info = info_[static_cast<std::size_t>(vcpu->id())];
  info.budget = std::max<TimeNs>(0, info.budget - amount);
}

}  // namespace tableau
