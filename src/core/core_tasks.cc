#include "src/core/core_tasks.h"

#include <algorithm>

#include "src/rt/hyperperiod.h"

namespace tableau {

struct CoreTasks::Core {
  List tasks;
  TimeNs demand = 0;
};

CoreTasks::CoreTasks(std::vector<List> lists) {
  cores_.reserve(lists.size());
  for (List& tasks : lists) {
    if (tasks.empty()) {
      cores_.emplace_back();
    } else {
      const TimeNs demand = TotalDemand(tasks, kHyperperiodNs);
      cores_.push_back(std::make_shared<Core>(Core{std::move(tasks), demand}));
    }
  }
}

const CoreTasks::List& CoreTasks::ListOf(const std::shared_ptr<Core>& core) {
  static const List kEmpty;
  return core != nullptr ? core->tasks : kEmpty;
}

TimeNs CoreTasks::demand(std::size_t core) const {
  return cores_[core] != nullptr ? cores_[core]->demand : 0;
}

CoreTasks::Core& CoreTasks::Edit(std::size_t core) {
  std::shared_ptr<Core>& slot = cores_[core];
  // A use count of one cannot be stale: no other owner exists to copy it.
  if (slot == nullptr || slot.use_count() > 1) {
    auto copy = std::make_shared<Core>();
    if (slot != nullptr) {
      copy->tasks.reserve(slot->tasks.size() + 1);
      copy->tasks.assign(slot->tasks.begin(), slot->tasks.end());
      copy->demand = slot->demand;
    }
    slot = std::move(copy);
  }
  return *slot;
}

void CoreTasks::Append(std::size_t core, const PeriodicTask& task) {
  Core& entry = Edit(core);
  entry.tasks.push_back(task);
  entry.demand += task.DemandPerHyperperiod(kHyperperiodNs);
}

void CoreTasks::Erase(std::size_t core, VcpuId vcpu) {
  Core& entry = Edit(core);
  std::erase_if(entry.tasks, [vcpu](const PeriodicTask& t) { return t.vcpu == vcpu; });
  entry.demand = TotalDemand(entry.tasks, kHyperperiodNs);
}

}  // namespace tableau
