// fleet::Host: one simulated machine of a multi-host fleet behind a single
// handle (api_redesign). The host owns the full per-box wiring that
// harness::Scenario used to assemble by hand — fault injector, scheduler,
// machine, optional windowed telemetry, planner, current Tableau plan — and
// adds the slot-pool VM model the fleet control plane admits into:
//
//  - A fixed pool of `num_cpus * slots_per_core` single-vCPU slots is
//    created up front, all blocked and absent from the scheduling table, so
//    telemetry binding stays static while VMs arrive and depart at runtime.
//  - AdmitVm() assigns the lowest free slot and replans the Tableau table
//    through Planner::Solve's delta path (Sec. 7.1 incremental
//    re-computation); RemoveVm() replans with the vCPU departed and frees
//    the slot for reuse.
#ifndef SRC_FLEET_HOST_H_
#define SRC_FLEET_HOST_H_

#include <memory>
#include <vector>

#include "src/adapt/controller.h"
#include "src/core/planner.h"
#include "src/core/replan.h"
#include "src/faults/fault_plan.h"
#include "src/hypervisor/machine.h"
#include "src/obs/telemetry.h"
#include "src/schedulers/factory.h"
#include "src/schedulers/tableau_scheduler.h"
#include "src/workloads/guest.h"

namespace tableau::fleet {

struct HostConfig {
  // Position of this host in the cluster (names, shard index).
  int index = 0;
  int num_cpus = 16;
  int cores_per_socket = 8;
  // vCPU slots pre-created per core. 0 = no slot pool: the owner adds
  // vCPUs itself through machine() (the single-host harness path).
  int slots_per_core = 4;
  SchedKind scheduler = SchedKind::kTableau;
  // Capped mode (no second-level scheduler) is the fleet default: only
  // table-backed slots ever run, so an empty slot is truly idle.
  bool capped = true;
  TimeNs credit_timeslice = 5 * kMillisecond;
  TimeNs switch_slip_tolerance = kTimeNever;
  int max_latency_degradations = 0;
  OverheadCosts costs;
  // Deterministic fault injection; empty builds no injector.
  faults::FaultPlan fault_plan;
  // Windowed telemetry for the slot pool (SLO verdicts drive the control
  // plane's overload detection). Off = the owner attaches telemetry itself.
  bool attach_telemetry = true;
  obs::Telemetry::Config telemetry;
  // Closed-loop adaptive reservations (src/adapt): when on, every admitted
  // VM is bound to an AdaptiveController and AdaptTick() — called by the
  // cluster at control barriers — resizes reservations through the
  // planner's delta path under ReplanController backoff. Off by default:
  // a detached controller leaves the host byte-identical to PR 9.
  bool adaptive = false;
  adapt::PolicyConfig adapt_policy;
  // Per-VM resize clamps handed to the controller at admission.
  double adapt_min_utilization = 1.0 / 32;
  double adapt_max_utilization = 1.0;
};

class Host {
 public:
  explicit Host(const HostConfig& config);

  const HostConfig& config() const { return config_; }
  int index() const { return config_.index; }
  Machine& machine() { return *machine_; }
  TableauScheduler* tableau() { return tableau_; }
  faults::FaultInjector* fault_injector() { return injector_.get(); }
  obs::Telemetry* telemetry() { return telemetry_.get(); }

  // Planner configuration for this host (machine metrics, fault injector,
  // degradation policy). The harness and the verification oracles construct
  // Planners from it; AdmitVm/RemoveVm use it internally.
  PlannerConfig planner_config() const;
  // Current Tableau plan (success == false until the first admission).
  const PlanResult& plan() const { return plan_; }

  // --- Slot-pool VM admission (fleet mode; requires slots_per_core > 0) ---

  int num_slots() const { return static_cast<int>(slots_.size()); }
  int free_slots() const { return free_slots_; }
  // Sum of admitted reservations' utilization, the control plane's
  // bin-packing weight.
  double committed() const { return committed_; }

  // Admits a VM reservation into the lowest free slot: replans the table
  // with the slot's vCPU added (delta path once a plan exists) and pushes
  // the new table through the time-synchronized switch protocol. Returns
  // the slot index, or -1 if no slot is free or planning failed (host
  // state unchanged). Call at a cluster barrier or from this host's shard.
  int AdmitVm(double utilization, TimeNs latency_goal);

  // Removes the VM in `slot`: replans with the vCPU departed and frees the
  // slot. The caller must have drained the slot's guest work first.
  void RemoveVm(int slot);

  // --- Adaptive reservations (config().adaptive) ---

  adapt::AdaptiveController* adaptive() { return adaptive_.get(); }

  // Demand and supply of a slot's vCPU over one control window, from
  // LatencyAttributor::TotalsAt deltas, so it is exact even for a starved
  // vCPU whose wait has not settled yet. has_data == false means the vCPU
  // saw no runnable or running time in the window ("no data", distinct
  // from zero demand): the adaptive controller's hold signal.
  struct WindowView {
    bool has_data = false;
    TimeNs demand_ns = 0;  // Service + wake-queue + preempt + blackout + slip.
    TimeNs supply_ns = 0;  // Service actually granted.
  };
  // Closes `slot`'s window at `now` on an adaptive host with telemetry: the
  // view since the slot's previous close, or since Machine::Start.
  WindowView CloseWindow(int slot, TimeNs now);

  // One controller tick at a deterministic barrier: closes every slot's
  // window (occupied or not, so a later admission's first view starts at a
  // tick), feeds the occupied slots' views to the controller, and applies
  // the non-hold decisions through ResizeVms. Returns resizes installed.
  int AdaptTick(TimeNs now);

  struct ResizeRequest {
    int slot = -1;
    double utilization = 0;
  };
  // Applies a batch of reservation resizes as ONE delta solve (departed =
  // resized vCPUs, added = their new requests) under ReplanController
  // backoff; a failure (or a still-open backoff window) keeps the previous
  // table for the whole batch. Reports CommitResize/RejectResize back to
  // the controller. Returns the number of resizes installed (all or none).
  int ResizeVms(const std::vector<ResizeRequest>& resizes, TimeNs now);

  bool slot_occupied(int slot) const {
    return slots_[static_cast<std::size_t>(slot)].occupied;
  }
  Vcpu* slot_vcpu(int slot) {
    return slots_[static_cast<std::size_t>(slot)].vcpu;
  }
  WorkQueueGuest* slot_guest(int slot) {
    return slots_[static_cast<std::size_t>(slot)].guest.get();
  }

  // End-of-run metrics snapshot (adaptive controller counters included).
  obs::MetricsSnapshot SnapshotMetrics();

 private:
  struct Slot {
    Vcpu* vcpu = nullptr;
    std::unique_ptr<WorkQueueGuest> guest;
    bool occupied = false;
    double utilization = 0;
  };

  // Replans with `added`/`departed` against the current plan and pushes the
  // result. Returns false (plan unchanged) on failure.
  bool Replan(std::vector<VcpuRequest> added, std::vector<VcpuId> departed);
  // Short all-idle placeholder table (installed before the first admission
  // and after the last departure).
  std::shared_ptr<SchedulingTable> EmptyTable() const;

  HostConfig config_;
  // Injector outlives the machine (machine holds a raw pointer).
  std::unique_ptr<faults::FaultInjector> injector_;
  std::unique_ptr<Machine> machine_;
  TableauScheduler* tableau_ = nullptr;
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::unique_ptr<Planner> planner_;
  // Backoff wrapper for controller-issued resizes (lazily built with the
  // planner; replan.* metrics live in the machine registry).
  std::unique_ptr<ReplanController> replan_;
  std::unique_ptr<adapt::AdaptiveController> adaptive_;
  // Adaptive hosts: each slot's attribution totals at its last CloseWindow.
  std::vector<obs::LatencyBreakdown> window_totals_;
  PlanResult plan_;
  std::vector<Slot> slots_;
  // Unoccupied slots, kept by AdmitVm/RemoveVm: the control plane asks
  // every host on every placement.
  int free_slots_ = 0;
  double committed_ = 0;
};

}  // namespace tableau::fleet

#endif  // SRC_FLEET_HOST_H_
