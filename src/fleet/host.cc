#include "src/fleet/host.h"

#include <string>
#include <utility>

#include "src/common/check.h"

namespace tableau::fleet {

Host::Host(const HostConfig& config) : config_(config) {
  if (!config_.fault_plan.empty()) {
    injector_ = std::make_unique<faults::FaultInjector>(config_.fault_plan);
  }

  SchedulerSpec spec;
  spec.kind = config_.scheduler;
  spec.capped = config_.capped;
  spec.credit_timeslice = config_.credit_timeslice;
  spec.switch_slip_tolerance = config_.switch_slip_tolerance;
  MadeScheduler made = MakeScheduler(spec);
  tableau_ = made.tableau;

  MachineConfig machine_config;
  machine_config.num_cpus = config_.num_cpus;
  machine_config.cores_per_socket = config_.cores_per_socket;
  machine_config.costs = config_.costs;
  machine_ = std::make_unique<Machine>(machine_config, std::move(made.scheduler));
  if (injector_ != nullptr) {
    machine_->SetFaultInjector(injector_.get());
  }

  if (config_.slots_per_core > 0) {
    const int num_slots = config_.num_cpus * config_.slots_per_core;
    slots_.reserve(static_cast<std::size_t>(num_slots));
    for (int s = 0; s < num_slots; ++s) {
      VcpuParams params;
      params.weight = 256;
      params.name = "h" + std::to_string(config_.index) + ".s" + std::to_string(s);
      Slot slot;
      slot.vcpu = machine_->AddVcpu(params);
      slot.guest = std::make_unique<WorkQueueGuest>(machine_.get(), slot.vcpu);
      slots_.push_back(std::move(slot));
    }
    free_slots_ = num_slots;
    if (config_.attach_telemetry) {
      telemetry_ = std::make_unique<obs::Telemetry>(config_.telemetry);
      std::vector<int> vm_of;
      for (int s = 0; s < num_slots; ++s) {
        telemetry_->SetVcpuName(s, slots_[static_cast<std::size_t>(s)].vcpu->params().name);
        vm_of.push_back(s);  // One slot = one VM for the per-host SLO tracker.
      }
      telemetry_->SetVmOf(std::move(vm_of));
      machine_->AttachTelemetry(telemetry_.get());
    }
    if (tableau_ != nullptr) {
      tableau_->PushTable(EmptyTable());
    }
  }
  if (config_.adaptive) {
    adaptive_ = std::make_unique<adapt::AdaptiveController>(config_.adapt_policy);
    // Every vCPU's totals are zero when Machine::Start binds the telemetry.
    window_totals_.resize(slots_.size());
  }
}

std::shared_ptr<SchedulingTable> Host::EmptyTable() const {
  // Placeholder table for a host with no admitted VM (Machine::Start needs a
  // table installed). Its round is kept one kMinPeriodNs, not a hyperperiod:
  // the dispatcher engages a pushed table at the *current* table's round wrap
  // ("two rounds out"), so a short empty round makes the first admission's
  // table live within ~2 * kMinPeriodNs instead of two hyperperiods.
  return std::make_shared<SchedulingTable>(SchedulingTable::Build(
      kMinPeriodNs,
      std::vector<std::vector<Allocation>>(static_cast<std::size_t>(config_.num_cpus))));
}

PlannerConfig Host::planner_config() const {
  PlannerConfig planner_config;
  planner_config.num_cpus = config_.num_cpus;
  planner_config.cores_per_socket = config_.cores_per_socket;
  planner_config.metrics = &machine_->metrics();
  // Deterministic counters only: wall-clock phase histograms would make
  // merged fleet metrics differ across runs and execution modes.
  planner_config.wall_timings = false;
  planner_config.fault_injector = injector_.get();
  planner_config.max_latency_degradations = config_.max_latency_degradations;
  return planner_config;
}

bool Host::Replan(std::vector<VcpuRequest> added, std::vector<VcpuId> departed) {
  if (tableau_ == nullptr) {
    return true;  // Non-Tableau hosts have no table to maintain.
  }
  if (planner_ == nullptr) {
    planner_ = std::make_unique<Planner>(planner_config());
  }
  PlanRequest request;
  if (plan_.success) {
    request = PlanRequest::Delta(plan_, std::move(added), std::move(departed));
  } else {
    TABLEAU_CHECK(departed.empty());
    request = PlanRequest::Full(std::move(added));
  }
  // Injected planner failures surface as a failed admission (the control
  // plane keeps the VM pending); retrying is the caller's policy.
  PlanResult next = planner_->Solve(request);
  if (!next.success) {
    return false;
  }
  plan_ = std::move(next);
  tableau_->PushTable(std::make_shared<SchedulingTable>(plan_.table));
  return true;
}

int Host::AdmitVm(double utilization, TimeNs latency_goal) {
  int slot = -1;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].occupied) {
      slot = static_cast<int>(s);
      break;
    }
  }
  if (slot < 0) {
    return -1;
  }
  Slot& state = slots_[static_cast<std::size_t>(slot)];
  VcpuRequest request;
  request.vcpu = state.vcpu->id();
  request.utilization = utilization;
  request.latency_goal = latency_goal;
  if (!Replan({request}, {})) {
    return -1;
  }
  state.occupied = true;
  --free_slots_;
  state.utilization = utilization;
  committed_ += utilization;
  if (adaptive_ != nullptr) {
    adapt::VmLimits limits;
    limits.min_utilization = config_.adapt_min_utilization;
    limits.max_utilization = config_.adapt_max_utilization;
    limits.latency_goal = latency_goal;
    adaptive_->BindVm(slot, utilization, limits);
  }
  return slot;
}

void Host::RemoveVm(int slot) {
  Slot& state = slots_[static_cast<std::size_t>(slot)];
  TABLEAU_CHECK(state.occupied);
  if (tableau_ != nullptr) {
    TABLEAU_CHECK(plan_.success);
    if (plan_.requests.size() == 1) {
      // Last VM out: no delta target remains; reset to the empty table.
      plan_ = PlanResult{};
      tableau_->PushTable(EmptyTable());
    } else {
      TABLEAU_CHECK_MSG(Replan({}, {state.vcpu->id()}),
                        "host %d: departure replan failed for vCPU %d",
                        config_.index, state.vcpu->id());
    }
  }
  state.occupied = false;
  ++free_slots_;
  committed_ -= state.utilization;
  state.utilization = 0;
  if (adaptive_ != nullptr) {
    adaptive_->UnbindVm(slot);
  }
}

int Host::ResizeVms(const std::vector<ResizeRequest>& resizes, TimeNs now) {
  if (resizes.empty() || tableau_ == nullptr) {
    return 0;
  }
  TABLEAU_CHECK(plan_.success);  // Resizes only exist for admitted VMs.
  if (planner_ == nullptr) {
    planner_ = std::make_unique<Planner>(planner_config());
  }
  if (replan_ == nullptr) {
    replan_ = std::make_unique<ReplanController>(planner_.get(),
                                                 ReplanController::Config{});
    replan_->AttachMetrics(&machine_->metrics());
  }
  // One delta solve for the whole batch: every resized vCPU departs and
  // re-enters with its new (U, L) request.
  std::vector<VcpuRequest> added;
  std::vector<VcpuId> departed;
  added.reserve(resizes.size());
  departed.reserve(resizes.size());
  for (const ResizeRequest& resize : resizes) {
    Slot& state = slots_[static_cast<std::size_t>(resize.slot)];
    TABLEAU_CHECK(state.occupied);
    VcpuRequest request;
    request.vcpu = state.vcpu->id();
    request.utilization = resize.utilization;
    request.latency_goal = adaptive_ != nullptr && adaptive_->bound(resize.slot)
                               ? adaptive_->limits(resize.slot).latency_goal
                               : config_.telemetry.slo.target_latency_ns;
    added.push_back(request);
    departed.push_back(state.vcpu->id());
  }
  ReplanController::Outcome outcome = replan_->TryReplan(
      PlanRequest::Delta(plan_, std::move(added), std::move(departed)), now);
  if (!outcome.installed) {
    // Backoff-suppressed or failed: keep the previous table (graceful
    // degradation) and tell the controller so it cools down.
    if (adaptive_ != nullptr) {
      for (const ResizeRequest& resize : resizes) {
        adaptive_->RejectResize(resize.slot);
      }
    }
    return 0;
  }
  plan_ = std::move(outcome.plan);
  tableau_->PushTable(std::make_shared<SchedulingTable>(plan_.table));
  for (const ResizeRequest& resize : resizes) {
    Slot& state = slots_[static_cast<std::size_t>(resize.slot)];
    committed_ += resize.utilization - state.utilization;
    state.utilization = resize.utilization;
    if (adaptive_ != nullptr) {
      adaptive_->CommitResize(resize.slot, resize.utilization);
    }
  }
  return static_cast<int>(resizes.size());
}

Host::WindowView Host::CloseWindow(int slot, TimeNs now) {
  obs::LatencyBreakdown& last = window_totals_[static_cast<std::size_t>(slot)];
  const obs::LatencyBreakdown totals = telemetry_->attributor().TotalsAt(slot, now);
  const obs::LatencyBreakdown window = totals - last;
  last = totals;
  WindowView view;
  view.supply_ns = window[obs::LatencyComponent::kService];
  view.demand_ns = view.supply_ns + window[obs::LatencyComponent::kWakeQueue] +
                   window[obs::LatencyComponent::kPreempt] +
                   window[obs::LatencyComponent::kBlackout] +
                   window[obs::LatencyComponent::kSwitchSlip];
  view.has_data = view.demand_ns > 0;
  return view;
}

int Host::AdaptTick(TimeNs now) {
  if (adaptive_ == nullptr || telemetry_ == nullptr) {
    return 0;
  }
  const double window = static_cast<double>(config_.telemetry.window_ns);
  std::vector<ResizeRequest> pending;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const int slot = static_cast<int>(s);
    const WindowView view = CloseWindow(slot, now);
    if (!plan_.success || !slots_[s].occupied || !adaptive_->bound(slot)) {
      continue;
    }
    const adapt::AdaptiveController::Decision decision = adaptive_->ObserveWindow(
        slot, view.has_data, static_cast<double>(view.supply_ns) / window,
        static_cast<double>(view.demand_ns) / window);
    if (decision.action != adapt::AdaptiveController::Action::kHold) {
      pending.push_back(ResizeRequest{slot, decision.target});
    }
  }
  return ResizeVms(pending, now);
}

obs::MetricsSnapshot Host::SnapshotMetrics() {
  if (adaptive_ != nullptr) {
    adaptive_->PublishMetrics(&machine_->metrics());
  }
  return machine_->SnapshotMetrics();
}

}  // namespace tableau::fleet
