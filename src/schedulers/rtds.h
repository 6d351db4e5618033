// Model of Xen's RTDS scheduler (from the RT-Xen project; Sec. 7.2).
//
// RTDS is a *dynamic* global-EDF scheduler over per-vCPU (budget, period)
// deferrable-server reservations: budgets replenish at period boundaries,
// the earliest current deadline runs, and a depleted vCPU waits for its next
// replenishment (so RTDS is inherently capped — the paper evaluates it only
// in the capped scenario).
//
// Crucially, all queues are global and protected by a single global lock.
// The lock is modelled exactly (a serialization point shared by all CPUs),
// which reproduces RTDS's scalability collapse: its post-schedule "Migrate"
// op costs ~9 us on 16 cores and >168 us on 48 cores in the paper
// (Tables 1-2).
//
// For a direct comparison, vCPU (budget, period) pairs are derived from the
// (utilization, latency) reservation with the same mapping Tableau's planner
// uses, exactly as the paper configures RTDS "to match the parameters of
// Tableau".
#ifndef SRC_SCHEDULERS_RTDS_H_
#define SRC_SCHEDULERS_RTDS_H_

#include <vector>

#include "src/hypervisor/machine.h"
#include "src/hypervisor/scheduler.h"

namespace tableau {

class RtdsScheduler : public VcpuScheduler {
 public:
  RtdsScheduler() = default;

  std::string Name() const override { return "RTDS"; }
  void Attach(Machine* machine) override;
  void AddVcpu(Vcpu* vcpu) override;
  void Start() override;
  Decision PickNext(CpuId cpu) override;
  void OnWakeup(Vcpu* vcpu) override;
  void OnBlock(Vcpu* vcpu, CpuId cpu) override;
  void OnDeschedule(Vcpu* vcpu, CpuId cpu, DeschedReason reason) override;
  void OnServiceAccrued(Vcpu* vcpu, CpuId cpu, TimeNs amount) override;

 private:
  struct VcpuInfo {
    Vcpu* vcpu = nullptr;
    TimeNs budget_max = 0;
    TimeNs period = 0;
    TimeNs budget = 0;
    TimeNs deadline = 0;  // Absolute deadline of the current period.
    EventId timer = kInvalidEvent;  // Persistent replenishment timer.
  };

  void Replenish(VcpuId id);
  // Preempt the idle CPU or the running vCPU with the latest deadline if
  // `info` beats it ("tickling"; scans all CPUs under the global lock).
  void Tickle(const VcpuInfo& info);
  // Charges one global-lock acquisition with bounded patience: spin at most
  // `patience`, then give up (Xen's trylock pattern on contended paths).
  void ChargeGlobalLockBounded(TimeNs hold, TimeNs patience);

  std::vector<VcpuInfo> info_;
  LockModel global_lock_;

  // Global-lock acquisition cost (queueing delay + hold) and the number of
  // bounded acquisitions that gave up within their patience window.
  obs::LatencyHistogram* m_lock_acquire_ns_ = nullptr;
  obs::Counter* m_lock_timeouts_ = nullptr;
};

}  // namespace tableau

#endif  // SRC_SCHEDULERS_RTDS_H_
