// WorkQueueGuest: a minimal guest-OS model — a FIFO of CPU work items
// executed by the vCPU, blocking when empty.
//
// The paper pins its measurement workloads at the highest SCHED_FIFO
// priority "to take the guest OS's scheduler out of the picture", so a
// run-to-completion FIFO is exactly the measured configuration.
#ifndef SRC_WORKLOADS_GUEST_H_
#define SRC_WORKLOADS_GUEST_H_

#include <functional>

#include "src/common/ring_queue.h"
#include "src/hypervisor/machine.h"

namespace tableau {

class WorkQueueGuest {
 public:
  WorkQueueGuest(Machine* machine, Vcpu* vcpu);

  // Enqueues a CPU work item; `on_done(now)` fires when its burst completes.
  // Wakes the vCPU if it was idle.
  void Post(TimeNs cpu_ns, std::function<void(TimeNs)> on_done);

  // Enqueues a work item ahead of all queued (but not the in-progress) work:
  // models guest-kernel-level processing such as ICMP echo handling, which
  // preempts user-level work (Sec. 7.3).
  void PostUrgent(TimeNs cpu_ns, std::function<void(TimeNs)> on_done);

  Vcpu* vcpu() { return vcpu_; }

 private:
  struct Item {
    TimeNs cpu_ns = 0;
    std::function<void(TimeNs)> on_done;
  };

  void Insert(Item item, bool urgent);
  void OnBurstComplete();

  Machine* machine_;
  Vcpu* vcpu_;
  // Front = the item in progress. A ring, so steady-state posting allocates
  // nothing (a callback that captures one pointer fits std::function's
  // inline buffer).
  RingQueue<Item> queue_;
};

}  // namespace tableau

#endif  // SRC_WORKLOADS_GUEST_H_
