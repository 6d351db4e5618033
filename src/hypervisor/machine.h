// The simulated multicore machine: pCPUs, vCPUs, and the glue between the
// discrete-event engine, the VM scheduler, and guest workloads.
//
// Responsibilities:
//  - drives the per-CPU schedule/dispatch/deschedule cycle,
//  - accounts guest service time, scheduler overhead, and context switches
//    (overhead consumes CPU time, so it costs guest throughput),
//  - collects the tracepoint samples behind Tables 1-2,
//  - exposes the wake/block/burst API that workload models drive.
#ifndef SRC_HYPERVISOR_MACHINE_H_
#define SRC_HYPERVISOR_MACHINE_H_

#include <memory>
#include <vector>

#include "src/common/time.h"
#include "src/faults/fault_injector.h"
#include "src/hypervisor/overhead.h"
#include "src/hypervisor/scheduler.h"
#include "src/hypervisor/trace.h"
#include "src/hypervisor/vcpu.h"
#include "src/obs/metrics.h"
#include "src/sim/simulation.h"

namespace tableau::obs {
class Telemetry;
}  // namespace tableau::obs

namespace tableau {

struct MachineConfig {
  int num_cpus = 16;
  int cores_per_socket = 8;
  OverheadCosts costs;
};

class Machine {
 public:
  Machine(MachineConfig config, std::unique_ptr<VcpuScheduler> scheduler);

  // The machine's own discrete-event engine.
  Simulation& sim() { return sim_; }
  const Simulation& sim() const { return sim_; }
  VcpuScheduler& scheduler() { return *scheduler_; }
  const MachineConfig& config() const { return config_; }
  int num_cpus() const { return config_.num_cpus; }
  int SocketOf(CpuId cpu) const { return cpu / config_.cores_per_socket; }
  TimeNs Now() const { return sim_.Now(); }

  // Creates a vCPU (initially blocked) and registers it with the scheduler.
  Vcpu* AddVcpu(const VcpuParams& params);
  Vcpu* vcpu(VcpuId id) { return vcpus_[static_cast<std::size_t>(id)].get(); }
  const std::vector<std::unique_ptr<Vcpu>>& vcpus() const { return vcpus_; }

  // Starts the scheduler and issues the initial scheduling pass on every
  // CPU. Call after all vCPUs and workloads are set up.
  void Start();

  // Advances the simulation by `duration`, then settles in-flight service
  // accounting at the horizon so statistics cover the full interval. A
  // single-host run drives the machine this way; a fleet advances its hosts'
  // engines at ShardedSimulation barriers and calls the two hooks below
  // itself.
  void RunFor(TimeNs duration);

  // --- Barrier hooks ---
  // A caller that advances sim() itself (the fleet's ShardedSimulation
  // barrier) replicates what RunFor does around the advance: a telemetry
  // cadence sample at every window boundary and a settle of in-flight
  // service accounting at the measurement horizon.
  void SampleTelemetryCadence(TimeNs at) {
    if (telemetry_ != nullptr) {
      SampleCadence(at);
    }
  }
  void SettleAllCpus() {
    for (CpuId cpu = 0; cpu < config_.num_cpus; ++cpu) {
      SettleService(cpu);
    }
  }

  // --- Guest / workload API (call from event context) ---

  // Makes a blocked vCPU runnable (no-op if already runnable).
  void Wake(VcpuId id);

  // Blocks a currently running vCPU; must be called from its
  // on_burst_complete handler (i.e., while it is the current vCPU).
  void Block(Vcpu* vcpu);

  // Sets the vCPU's next compute burst. Only valid while the vCPU is not
  // running, or from within its on_burst_complete handler.
  void SetBurst(Vcpu* vcpu, TimeNs burst) { vcpu->set_remaining_burst(burst); }

  // --- Scheduler API (call from scheduler hooks) ---

  // Charges `cost` ns of scheduler overhead to the operation currently being
  // traced (or to the next one on this CPU if none is active).
  void AddOpCost(TimeNs cost);

  // Charges overhead outside any traced operation (periodic accounting
  // ticks) to `cpu`.
  void ChargeBackground(CpuId cpu, TimeNs cost);

  // Requests a (re)scheduling pass on `cpu`. If `remote`, models an IPI:
  // send cost is charged to the current operation and delivery is delayed by
  // the IPI latency.
  void KickCpu(CpuId cpu, bool remote);

  Vcpu* RunningOn(CpuId cpu) const { return cpu_[static_cast<std::size_t>(cpu)].current; }

  // --- Fault injection ---

  // Attaches a fault injector (not owned; must outlive the machine) and
  // registers its faults.* metrics on this machine's registry. Call before
  // Start(). With no injector — or an injector whose plan is empty — the
  // machine behaves byte-identically to the fault-free engine.
  void SetFaultInjector(faults::FaultInjector* injector);
  faults::FaultInjector* fault_injector() { return fault_injector_; }

  // Settles service/accounting for the vCPU currently on `cpu` up to Now().
  // Schedulers must call this before mutating accounting state (credit or
  // budget refills) of a *running* vCPU, so consumption up to now is charged
  // against the old balance.
  void SettleAccounting(CpuId cpu) { SettleService(cpu); }

  // --- Statistics ---

  // Event trace (xentrace analog). Disabled by default; enable with
  // trace().set_enabled(true) before Start().
  TraceBuffer& trace() { return trace_; }
  const TraceBuffer& trace() const { return trace_; }

  // Machine-owned metrics registry (machine.*, sim.*, trace.*, plus
  // whatever the attached scheduler registers). Enabled by default; metrics
  // are pure observers and never perturb the simulation.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  // Attaches the windowed telemetry bundle (not owned; must outlive the
  // machine). Call before Start(): Start() binds it to the machine's
  // CPU/vCPU counts and the scheduler's table_driven() classification. Like
  // metrics and traces, telemetry is a pure observer — hooks never schedule
  // simulation events, so runs are bit-identical with or without it.
  void AttachTelemetry(obs::Telemetry* telemetry) { telemetry_ = telemetry; }
  obs::Telemetry* telemetry() { return telemetry_; }
  // Publishes end-of-run gauges (busy/overhead totals, engine internals,
  // trace accounting) into the registry, then snapshots it.
  obs::MetricsSnapshot SnapshotMetrics();

  TimeNs cpu_busy_ns(CpuId cpu) const { return cpu_[static_cast<std::size_t>(cpu)].busy_ns; }
  TimeNs cpu_overhead_ns(CpuId cpu) const {
    return cpu_[static_cast<std::size_t>(cpu)].overhead_ns;
  }
  std::uint64_t context_switches() const { return context_switches_; }
  std::uint64_t schedule_invocations() const { return schedule_invocations_; }
  // Fraction of dispatches of `vcpu` that came from a second-level decision.
  double SecondLevelFraction(VcpuId vcpu) const;

 private:
  struct CpuState {
    Vcpu* current = nullptr;
    // The armed timer (cpu_event_timer or resched_timer), or kInvalidEvent.
    // At most one of the two is armed per CPU at any time.
    EventId pending = kInvalidEvent;
    // Persistent pooled timers, created once per CPU: the dispatch event
    // (slice end / burst completion), the idle-horizon reschedule, and the
    // kick (IPI delivery). Re-armed instead of allocating per-event closures.
    EventId cpu_event_timer = kInvalidEvent;
    EventId resched_timer = kInvalidEvent;
    EventId kick_timer = kInvalidEvent;
    TimeNs decision_until = kTimeNever;
    bool kick_pending = false;
    TimeNs overhead_debt = 0;
    TimeNs last_accrual = 0;  // Wall-clock accounting point for the current vCPU.
    TimeNs busy_ns = 0;
    TimeNs overhead_ns = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t second_level_dispatches = 0;
  };

  void Reschedule(CpuId cpu, DeschedReason reason);
  void OnCpuEvent(CpuId cpu);
  // Telemetry cadence sample at a window boundary (instantaneous vCPU-state
  // counts); pure read of machine state.
  void SampleCadence(TimeNs at);
  // Timer-fault hook: the fire time the injector lets the timer see (>= at).
  TimeNs PerturbFire(TimeNs at);
  // Credits service from service_start_ to now and advances service_start_.
  void SettleService(CpuId cpu);

  template <typename Fn>
  auto TraceOp(SchedOp op, CpuId cpu, Fn&& fn);

  MachineConfig config_;
  // Declared before everything that arms timers on it.
  Simulation sim_;
  faults::FaultInjector* fault_injector_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;
  std::unique_ptr<VcpuScheduler> scheduler_;
  std::vector<std::unique_ptr<Vcpu>> vcpus_;
  std::vector<CpuState> cpu_;

  bool op_active_ = false;
  TimeNs op_cost_ = 0;
  TimeNs carryover_cost_ = 0;

  TraceBuffer trace_;
  obs::MetricsRegistry metrics_;
  // Hot-path metric handles, resolved once in the constructor (before the
  // scheduler attaches and registers its own).
  obs::Counter* m_context_switches_;
  obs::Counter* m_migrations_;
  obs::Counter* m_schedule_invocations_;
  obs::Counter* m_overhead_ns_;
  obs::LatencyHistogram* m_dispatch_latency_;
  obs::LatencyHistogram* m_op_ns_[kNumSchedOps];
  // vCPUs runnable but not running, and running: kept at the four state
  // transitions (wake, block, deschedule, dispatch), so a cadence sample
  // reads them without scanning every vCPU.
  int num_runnable_waiting_ = 0;
  int num_running_ = 0;
  std::uint64_t context_switches_ = 0;
  std::uint64_t schedule_invocations_ = 0;
  std::vector<std::uint64_t> vcpu_dispatches_;
  std::vector<std::uint64_t> vcpu_second_level_;
};

}  // namespace tableau

#endif  // SRC_HYPERVISOR_MACHINE_H_
