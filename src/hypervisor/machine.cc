#include "src/hypervisor/machine.h"

#include <algorithm>

#include "src/obs/telemetry.h"

namespace tableau {

Machine::Machine(MachineConfig config, std::unique_ptr<VcpuScheduler> scheduler)
    : config_(config), scheduler_(std::move(scheduler)) {
  TABLEAU_CHECK(config_.num_cpus > 0 && config_.cores_per_socket > 0);
  cpu_.resize(static_cast<std::size_t>(config_.num_cpus));
  for (CpuId cpu = 0; cpu < config_.num_cpus; ++cpu) {
    CpuState& state = cpu_[static_cast<std::size_t>(cpu)];
    state.cpu_event_timer = sim_.CreateTimer([this, cpu] { OnCpuEvent(cpu); });
    state.resched_timer =
        sim_.CreateTimer([this, cpu] { Reschedule(cpu, DeschedReason::kSliceEnd); });
    state.kick_timer = sim_.CreateTimer([this, cpu] {
      cpu_[static_cast<std::size_t>(cpu)].kick_pending = false;
      Reschedule(cpu, DeschedReason::kPreempted);
    });
  }
  trace_.set_enabled(false);
  m_context_switches_ = metrics_.GetCounter("machine.context_switches");
  m_migrations_ = metrics_.GetCounter("machine.migrations");
  m_schedule_invocations_ = metrics_.GetCounter("machine.schedule_invocations");
  m_overhead_ns_ = metrics_.GetCounter("machine.overhead_ns");
  m_dispatch_latency_ = metrics_.GetHistogram("machine.dispatch_latency_ns");
  for (int op = 0; op < kNumSchedOps; ++op) {
    m_op_ns_[op] = metrics_.GetHistogram(SchedOpMetric(static_cast<SchedOp>(op)));
  }
  // Attach last: schedulers may register their own metrics from Attach().
  scheduler_->Attach(this);
}

Vcpu* Machine::AddVcpu(const VcpuParams& params) {
  const VcpuId id = static_cast<VcpuId>(vcpus_.size());
  vcpus_.push_back(std::make_unique<Vcpu>(id, params));
  vcpu_dispatches_.push_back(0);
  vcpu_second_level_.push_back(0);
  Vcpu* vcpu = vcpus_.back().get();
  scheduler_->AddVcpu(vcpu);
  return vcpu;
}

void Machine::SetFaultInjector(faults::FaultInjector* injector) {
  fault_injector_ = injector;
  if (fault_injector_ != nullptr) {
    fault_injector_->AttachMetrics(&metrics_);
  }
}

TimeNs Machine::PerturbFire(TimeNs at) {
  if (fault_injector_ == nullptr) {
    return at;
  }
  return fault_injector_->PerturbTimerArm(sim_.Now(), at);
}

void Machine::RunFor(TimeNs duration) {
  const TimeNs target = sim_.Now() + duration;
  if (telemetry_ != nullptr) {
    // Cadence sampling: chunk the advance at telemetry window boundaries.
    // RunUntil executes exactly the events due up to its horizon and then
    // sets the clock to it, so chunking is behavior-neutral — the same
    // events fire at the same times whether telemetry is attached or not.
    TimeNs boundary = telemetry_->NextBoundaryAfter(sim_.Now());
    while (boundary < target) {
      sim_.RunUntil(boundary);
      SampleCadence(boundary);
      boundary += telemetry_->window_ns();
    }
  }
  sim_.RunUntil(target);
  SettleAllCpus();
}

void Machine::SampleCadence(TimeNs at) {
  telemetry_->OnCadenceSample(at, num_runnable_waiting_, num_running_);
}

void Machine::Start() {
  if (telemetry_ != nullptr && !telemetry_->bound()) {
    telemetry_->Bind(config_.num_cpus, static_cast<int>(vcpus_.size()),
                     scheduler_->table_driven(), sim_.Now());
  }
  scheduler_->Start();
  for (CpuId cpu = 0; cpu < config_.num_cpus; ++cpu) {
    sim_.Arm(cpu_[static_cast<std::size_t>(cpu)].resched_timer, sim_.Now());
  }
}

template <typename Fn>
auto Machine::TraceOp(SchedOp op, CpuId cpu, Fn&& fn) {
  TABLEAU_CHECK(!op_active_);
  op_active_ = true;
  op_cost_ = carryover_cost_;
  carryover_cost_ = 0;
  auto finish = [&]() {
    op_active_ = false;
    m_op_ns_[static_cast<int>(op)]->Record(op_cost_);
    CpuState& state = cpu_[static_cast<std::size_t>(cpu)];
    state.overhead_debt += op_cost_;
  };
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    finish();
  } else {
    auto result = fn();
    finish();
    return result;
  }
}

void Machine::AddOpCost(TimeNs cost) {
  TABLEAU_CHECK(cost >= 0);
  if (fault_injector_ != nullptr && cost > 0) {
    cost = fault_injector_->ScaleSchedOpCost(sim_.Now(), cost);
  }
  if (op_active_) {
    op_cost_ += cost;
  } else {
    carryover_cost_ += cost;
  }
}

void Machine::ChargeBackground(CpuId cpu, TimeNs cost) {
  TABLEAU_CHECK(cost >= 0);
  cpu_[static_cast<std::size_t>(cpu)].overhead_debt += cost;
}

void Machine::KickCpu(CpuId cpu, bool remote) {
  CpuState& state = cpu_[static_cast<std::size_t>(cpu)];
  if (state.kick_pending) {
    return;
  }
  state.kick_pending = true;
  if (remote) {
    AddOpCost(config_.costs.ipi_send);
  }
  TimeNs delay = remote ? config_.costs.ipi_latency : 0;
  if (remote && fault_injector_ != nullptr) {
    // Dropped IPIs re-send after a bounded retry interval: delivery becomes
    // later, never lost, so kick_pending still dedups correctly.
    delay = fault_injector_->PerturbIpiDelay(sim_.Now(), delay);
  }
  sim_.Arm(state.kick_timer, sim_.Now() + delay);
}

void Machine::SettleService(CpuId cpu) {
  CpuState& state = cpu_[static_cast<std::size_t>(cpu)];
  Vcpu* vcpu = state.current;
  if (vcpu == nullptr) {
    return;
  }
  const TimeNs now = sim_.Now();
  // Guest-visible service excludes the overhead window before service_start_.
  const TimeNs served = std::max<TimeNs>(0, now - vcpu->service_start_);
  if (served > 0) {
    vcpu->total_service_ += served;
    state.busy_ns += served;
    if (vcpu->remaining_burst_ != kTimeNever) {
      vcpu->remaining_burst_ = std::max<TimeNs>(0, vcpu->remaining_burst_ - served);
    }
    if (telemetry_ != nullptr) {
      telemetry_->OnServiceRange(vcpu->id(), cpu, now - served, now);
    }
  }
  vcpu->service_start_ = std::max(vcpu->service_start_, now);
  // Scheduler accounting (credits, budgets) burns assigned *wall* time, as
  // Xen does: overhead and context-switch time are charged to the vCPU that
  // was scheduled. This also guarantees forward progress when a slice is
  // shorter than the dispatch overhead.
  const TimeNs wall = std::max<TimeNs>(0, now - state.last_accrual);
  state.last_accrual = now;
  if (wall > 0) {
    scheduler_->OnServiceAccrued(vcpu, cpu, wall);
  }
}

void Machine::Wake(VcpuId id) {
  Vcpu* vcpu = vcpus_[static_cast<std::size_t>(id)].get();
  if (vcpu->state_ != VcpuState::kBlocked) {
    return;
  }
  vcpu->state_ = VcpuState::kRunnable;
  ++num_runnable_waiting_;
  vcpu->wake_time_ = sim_.Now();
  vcpu->woke_since_dispatch_ = true;
  trace_.Record(sim_.Now(), TraceEvent::kWakeup, vcpu->last_cpu_, vcpu->id());
  if (telemetry_ != nullptr) {
    telemetry_->OnWakeup(vcpu->id(), sim_.Now());
  }
  // Wakeups are processed on the vCPU's last CPU (where the event-channel
  // interrupt lands); the charged cost lands there as overhead debt.
  const CpuId processing = vcpu->last_cpu_ == kNoCpu ? 0 : vcpu->last_cpu_;
  AddOpCost(config_.costs.wakeup_entry);
  TraceOp(SchedOp::kWakeup, processing, [&] { scheduler_->OnWakeup(vcpu); });
  if (fault_injector_ != nullptr) {
    // Wakeup storm: spurious event-channel notifications. Each burns a full
    // wakeup-processing pass and a spurious local kick, but never re-enters
    // the scheduler's OnWakeup (the vCPU is already runnable; re-enqueueing
    // it would corrupt every scheduler's runqueue invariants).
    const int storm = fault_injector_->NextWakeupStormCount(sim_.Now());
    for (int i = 0; i < storm; ++i) {
      AddOpCost(config_.costs.wakeup_entry);
      TraceOp(SchedOp::kWakeup, processing, [] {});
      KickCpu(processing, /*remote=*/false);
    }
  }
}

void Machine::Block(Vcpu* vcpu) {
  const CpuId cpu = vcpu->running_on_;
  TABLEAU_CHECK_MSG(cpu != kNoCpu, "Block() on a non-running vCPU %d", vcpu->id());
  CpuState& state = cpu_[static_cast<std::size_t>(cpu)];
  TABLEAU_CHECK(state.current == vcpu);
  SettleService(cpu);
  vcpu->state_ = VcpuState::kBlocked;
  --num_running_;
  vcpu->running_on_ = kNoCpu;
  vcpu->last_cpu_ = cpu;
  vcpu->last_service_end_ = sim_.Now();
  trace_.Record(sim_.Now(), TraceEvent::kBlock, cpu, vcpu->id());
  if (telemetry_ != nullptr) {
    telemetry_->OnBlock(vcpu->id(), sim_.Now());
  }
  state.current = nullptr;
  sim_.Disarm(state.pending);
  state.pending = kInvalidEvent;
  scheduler_->OnBlock(vcpu, cpu);
  Reschedule(cpu, DeschedReason::kBlocked);
}

void Machine::Reschedule(CpuId cpu, DeschedReason reason) {
  CpuState& state = cpu_[static_cast<std::size_t>(cpu)];
  // Disarm, not Cancel: the pending timer is persistent and re-armed below.
  // When Reschedule *is* the pending timer's own callback, this just
  // suppresses its re-arm — the seed engine leaked a tombstone here.
  sim_.Disarm(state.pending);
  state.pending = kInvalidEvent;
  const TimeNs now = sim_.Now();

  Vcpu* prev = state.current;
  if (prev != nullptr) {
    SettleService(cpu);
    prev->state_ = VcpuState::kRunnable;
    --num_running_;
    ++num_runnable_waiting_;
    prev->running_on_ = kNoCpu;
    prev->last_cpu_ = cpu;
    prev->last_service_end_ = now;
    state.current = nullptr;
    trace_.Record(now, TraceEvent::kDeschedule, cpu, prev->id(),
                  static_cast<std::int64_t>(reason));
    if (telemetry_ != nullptr) {
      telemetry_->OnDeschedule(prev->id(), now);
    }
    TraceOp(SchedOp::kMigrate, cpu, [&] { scheduler_->OnDeschedule(prev, cpu, reason); });
  }

  ++schedule_invocations_;
  m_schedule_invocations_->Increment();
  AddOpCost(config_.costs.sched_entry);
  Decision decision =
      TraceOp(SchedOp::kSchedule, cpu, [&] { return scheduler_->PickNext(cpu); });
  TABLEAU_CHECK_MSG(decision.until > now,
                    "scheduler returned a non-advancing decision (until=%lld, now=%lld)",
                    static_cast<long long>(decision.until), static_cast<long long>(now));
  state.decision_until = decision.until;

  TimeNs start_delay = state.overhead_debt;
  state.overhead_debt = 0;

  if (decision.vcpu == kIdleVcpu) {
    trace_.Record(now, TraceEvent::kIdle, cpu, kIdleVcpu);
    state.overhead_ns += start_delay;
    m_overhead_ns_->Increment(start_delay);
    if (decision.until != kTimeNever) {
      sim_.Arm(state.resched_timer, std::max(now, PerturbFire(decision.until)));
      state.pending = state.resched_timer;
    }
    return;
  }

  Vcpu* next = vcpus_[static_cast<std::size_t>(decision.vcpu)].get();
  TABLEAU_CHECK_MSG(next->runnable(), "scheduler picked blocked vCPU %d", next->id());
  TABLEAU_CHECK_MSG(next->running_on_ == kNoCpu,
                    "scheduler picked vCPU %d already running on cpu %d", next->id(),
                    next->running_on_);
  if (next != prev) {
    TimeNs switch_cost = config_.costs.context_switch;
    if (fault_injector_ != nullptr) {
      switch_cost = fault_injector_->ScaleContextSwitchCost(now, switch_cost);
    }
    start_delay += switch_cost;
    ++context_switches_;
    m_context_switches_->Increment();
    if (next->last_cpu_ != kNoCpu && next->last_cpu_ != cpu) {
      m_migrations_->Increment();
    }
  }
  state.overhead_ns += start_delay;
  m_overhead_ns_->Increment(start_delay);

  next->state_ = VcpuState::kRunning;
  --num_runnable_waiting_;
  ++num_running_;
  next->running_on_ = cpu;
  next->service_start_ = now + start_delay;
  state.current = next;
  state.last_accrual = now;
  state.dispatches++;
  vcpu_dispatches_[static_cast<std::size_t>(next->id())]++;
  if (decision.second_level) {
    state.second_level_dispatches++;
    vcpu_second_level_[static_cast<std::size_t>(next->id())]++;
  }

  if (next->woke_since_dispatch_) {
    const TimeNs latency = next->service_start_ - next->wake_time_;
    m_dispatch_latency_->Record(latency);
    if (next->instrumented_) {
      next->wakeup_latency_.Record(latency);
    }
  } else if (next->instrumented_ && next->dispatch_count_ > 0) {
    next->service_gaps_.Record(next->service_start_ - next->last_service_end_);
  }
  next->woke_since_dispatch_ = false;
  next->dispatch_count_++;
  trace_.Record(now, TraceEvent::kDispatch, cpu, next->id(),
                decision.second_level ? 1 : 0);
  if (telemetry_ != nullptr) {
    telemetry_->OnDispatch(next->id(), now);
  }

  TimeNs event_time = decision.until;
  if (next->remaining_burst_ != kTimeNever) {
    event_time = std::min(event_time, next->service_start_ + next->remaining_burst_);
  }
  TABLEAU_CHECK(event_time != kTimeNever);
  sim_.Arm(state.cpu_event_timer, std::max(now, PerturbFire(event_time)));
  state.pending = state.cpu_event_timer;
}

void Machine::OnCpuEvent(CpuId cpu) {
  CpuState& state = cpu_[static_cast<std::size_t>(cpu)];
  state.pending = kInvalidEvent;
  Vcpu* vcpu = state.current;
  const TimeNs now = sim_.Now();

  if (vcpu == nullptr || now >= state.decision_until) {
    Reschedule(cpu, DeschedReason::kSliceEnd);
    return;
  }

  // Burst completion: let the guest decide what happens next.
  SettleService(cpu);
  TABLEAU_CHECK(vcpu->remaining_burst_ == 0);
  if (fault_injector_ != nullptr) {
    // Guest budget overrun: the burst refuses to end (interrupts disabled in
    // the guest) and keeps computing for a bounded extra stretch before the
    // completion handler finally runs.
    const TimeNs overrun = fault_injector_->NextBurstOverrun(now);
    if (overrun > 0) {
      vcpu->remaining_burst_ = overrun;
      TimeNs event_time = std::min(state.decision_until, now + overrun);
      sim_.Arm(state.cpu_event_timer, std::max(now, PerturbFire(event_time)));
      state.pending = state.cpu_event_timer;
      return;
    }
  }
  TABLEAU_CHECK_MSG(static_cast<bool>(vcpu->on_burst_complete),
                    "vCPU %d has no on_burst_complete handler", vcpu->id());
  vcpu->on_burst_complete();

  if (state.current == vcpu && vcpu->state_ == VcpuState::kRunning) {
    // Guest continued with a new burst; no scheduler involvement needed.
    TABLEAU_CHECK_MSG(vcpu->remaining_burst_ > 0,
                      "vCPU %d continued running with an empty burst", vcpu->id());
    TimeNs event_time = state.decision_until;
    if (vcpu->remaining_burst_ != kTimeNever) {
      event_time = std::min(event_time, now + vcpu->remaining_burst_);
    }
    TABLEAU_CHECK(event_time != kTimeNever);
    sim_.Arm(state.cpu_event_timer, std::max(now, event_time));
    state.pending = state.cpu_event_timer;
  }
  // Otherwise the guest blocked and Block() already rescheduled this CPU.
}

obs::MetricsSnapshot Machine::SnapshotMetrics() {
  TimeNs busy = 0;
  TimeNs overhead = 0;
  for (const CpuState& state : cpu_) {
    busy += state.busy_ns;
    overhead += state.overhead_ns;
  }
  metrics_.GetGauge("machine.cpu_busy_ns")->Set(static_cast<double>(busy));
  metrics_.GetGauge("machine.cpu_overhead_ns")->Set(static_cast<double>(overhead));
  metrics_.GetGauge("trace.records")->Set(static_cast<double>(trace_.total_recorded()));
  metrics_.GetGauge("trace.dropped")->Set(static_cast<double>(trace_.dropped()));
  const Simulation::EngineStats& engine = sim_.engine_stats();
  metrics_.GetGauge("sim.events_executed")->Set(static_cast<double>(sim_.events_executed()));
  metrics_.GetGauge("sim.wheel_cascades")->Set(static_cast<double>(engine.wheel_cascades));
  metrics_.GetGauge("sim.wheel_slot_drains")->Set(static_cast<double>(engine.slot_drains));
  metrics_.GetGauge("sim.overflow_reloads")->Set(static_cast<double>(engine.overflow_reloads));
  metrics_.GetGauge("sim.pool_capacity")->Set(static_cast<double>(sim_.pool_capacity()));
  metrics_.GetGauge("sim.live_events")->Set(static_cast<double>(sim_.live_events()));
  metrics_.GetGauge("sim.peak_live_events")->Set(static_cast<double>(engine.peak_live_nodes));
  return metrics_.Snapshot();
}

double Machine::SecondLevelFraction(VcpuId vcpu) const {
  const auto v = static_cast<std::size_t>(vcpu);
  if (vcpu_dispatches_[v] == 0) {
    return 0;
  }
  return static_cast<double>(vcpu_second_level_[v]) /
         static_cast<double>(vcpu_dispatches_[v]);
}

}  // namespace tableau
