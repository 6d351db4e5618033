// Experiment harness: builds the paper's evaluation scenarios (Sec. 7.2
// "Scheduler setup") — a machine with N guest cores (dom0's cores are not
// simulated; they serve no guest work), four single-vCPU VMs per core, one
// of the four schedulers, and the paper's parameters:
//  - Credit with a 5 ms timeslice (documented best practice for I/O);
//  - Tableau with a 20 ms maximum scheduling latency, "to allow for a
//    reasonably fair comparison with Credit" (the planner then picks a
//    period of roughly 13 ms with a budget of about 3.2 ms);
//  - RTDS configured to match Tableau's parameters;
//  - a capped variant (25% caps; Credit/RTDS/Tableau) and an uncapped one
//    (Credit/Credit2/Tableau with the second-level scheduler).
#ifndef SRC_HARNESS_SCENARIO_H_
#define SRC_HARNESS_SCENARIO_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/planner.h"
#include "src/faults/fault_plan.h"
#include "src/fleet/cluster.h"
#include "src/hypervisor/machine.h"
#include "src/schedulers/factory.h"
#include "src/schedulers/tableau_scheduler.h"

namespace tableau {

struct ScenarioConfig {
  SchedKind scheduler = SchedKind::kTableau;
  // Guest cores (the paper's 16-core box gives 12 to guests, the 48-core
  // box gives 44).
  int guest_cpus = 12;
  int cores_per_socket = 6;
  int vms_per_core = 4;
  bool capped = false;
  // Per-VM reservation (fair share of 4 VMs/core and the paper's 20 ms
  // latency goal).
  double utilization = 0.25;
  TimeNs latency_goal = 20 * kMillisecond;
  TimeNs credit_timeslice = 5 * kMillisecond;
  OverheadCosts costs;
  // Deterministic fault injection. Empty (the default) builds no injector:
  // the scenario is byte-identical to the fault-free engine.
  faults::FaultPlan fault_plan;
  // Tableau degradation: re-arm a table switch that misses its deadline by
  // more than this at the next wrap (kTimeNever = promote late, the
  // golden-preserving default).
  TimeNs switch_slip_tolerance = kTimeNever;
  // Planner degradation: stepwise latency-goal relaxation on admission
  // rejection (0 = off).
  int max_latency_degradations = 0;
};

// A single-host experiment, expressed as a one-host fleet::Cluster
// (api_redesign: the fleet Host/Cluster API is the only way to build a
// simulated box; the classic harness is the size-1 special case). The
// cluster owns the host, which owns the fault injector, scheduler, and
// machine; `host`, `machine`, `tableau`, and `injector` are non-owning
// views into it that stay valid as the Scenario moves.
struct Scenario {
  std::unique_ptr<fleet::Cluster> cluster;
  fleet::Host* host = nullptr;
  Machine* machine = nullptr;
  // Owned by the machine; null unless scheduler == kTableau.
  TableauScheduler* tableau = nullptr;
  // Fault injector driving machine + planner hooks; null when fault_plan
  // is empty.
  faults::FaultInjector* injector = nullptr;
  std::vector<Vcpu*> vcpus;
  // vCPU 0, used as the measurement vantage point.
  Vcpu* vantage = nullptr;
  PlanResult plan;  // Valid for Tableau scenarios.
  // Grouping of vCPUs into VMs ("each VM comprises one or more vCPUs",
  // Sec. 2). vm_of[vcpu id] = VM index. Single-vCPU VMs in BuildScenario.
  std::vector<int> vm_of;
};

// Maps a single-host scenario config onto the fleet host configuration the
// harness builds its cluster from: no slot pool (the harness adds vCPUs
// itself) and no host-owned telemetry (AttachTelemetry wires an external
// instance). Shared with tools that want a fleet host shaped like the
// classic experiment box.
fleet::HostConfig HostConfigFrom(const ScenarioConfig& config);

// Builds the machine, vCPUs, and (for Tableau) the scheduling table.
Scenario BuildScenario(const ScenarioConfig& config);

// A multi-vCPU VM description for BuildVmScenario.
struct VmSpec {
  int vcpus = 1;
  double utilization_each = 0.25;
  TimeNs latency_goal = 20 * kMillisecond;
  // For Tableau: emit a kPrefer co-scheduling hint between the VM's vCPUs
  // (gang alignment, Sec. 5 post-processing).
  bool gang = false;
};

// Builds a scenario from explicit (possibly multi-vCPU) VM descriptions.
// Under Tableau, each vCPU is an independent reservation — exactly the
// paper's model — and gang VMs additionally get their slots aligned by the
// co-scheduling pass when possible.
Scenario BuildVmScenario(const ScenarioConfig& config, const std::vector<VmSpec>& vms);

// Wires a telemetry instance into a built scenario: copies the scenario's
// vCPU names and VM grouping into the telemetry (so exported series and SLO
// verdicts use "vm3"-style names) and attaches it to the machine. Call
// before the machine starts; `telemetry` must outlive the machine. The
// telemetry is a pure observer — attaching it does not change the schedule.
void AttachTelemetry(Scenario& scenario, obs::Telemetry* telemetry);

// FNV-1a over every retained trace record, then the trace's total_recorded()
// and the engine's events_executed(): the run-determinism fingerprint that
// observer-neutrality checks compare with an observer on and off.
std::uint64_t TraceFingerprint(const Machine& machine);

// TraceFingerprint continued over context_switches() and
// schedule_invocations(): the engine-golden fingerprint pinned in
// tests/engine_golden_test.cc.
std::uint64_t GoldenFingerprint(const Machine& machine);

}  // namespace tableau

#endif  // SRC_HARNESS_SCENARIO_H_
