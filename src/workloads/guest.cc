#include "src/workloads/guest.h"

#include <utility>

#include "src/common/check.h"

namespace tableau {

WorkQueueGuest::WorkQueueGuest(Machine* machine, Vcpu* vcpu)
    : machine_(machine), vcpu_(vcpu) {
  vcpu_->on_burst_complete = [this] { OnBurstComplete(); };
}

void WorkQueueGuest::Post(TimeNs cpu_ns, std::function<void(TimeNs)> on_done) {
  Insert(Item{cpu_ns, std::move(on_done)}, /*urgent=*/false);
}

void WorkQueueGuest::PostUrgent(TimeNs cpu_ns, std::function<void(TimeNs)> on_done) {
  Insert(Item{cpu_ns, std::move(on_done)}, /*urgent=*/true);
}

void WorkQueueGuest::Insert(Item item, bool urgent) {
  TABLEAU_CHECK(item.cpu_ns > 0);
  const bool was_empty = queue_.empty();
  const TimeNs cpu_ns = item.cpu_ns;
  if (urgent && !was_empty) {
    // The front item is in progress (its burst is armed); insert right
    // behind it, ahead of all other queued work.
    queue_.Insert(1, std::move(item));
  } else {
    queue_.PushBack(std::move(item));
  }
  if (was_empty && vcpu_->state() == VcpuState::kBlocked) {
    machine_->SetBurst(vcpu_, cpu_ns);
    machine_->Wake(vcpu_->id());
  } else if (was_empty && vcpu_->state() == VcpuState::kRunnable &&
             vcpu_->running_on() == kNoCpu) {
    // Runnable but not dispatched yet (e.g., woken earlier with pending
    // work that was since consumed): just arm the burst.
    machine_->SetBurst(vcpu_, cpu_ns);
  }
}

void WorkQueueGuest::OnBurstComplete() {
  TABLEAU_CHECK(!queue_.empty());
  Item item = queue_.PopFront();
  if (item.on_done) {
    item.on_done(machine_->Now());
  }
  // on_done may have posted more work.
  if (!queue_.empty()) {
    machine_->SetBurst(vcpu_, queue_.front().cpu_ns);
  } else {
    machine_->Block(vcpu_);
  }
}

}  // namespace tableau
