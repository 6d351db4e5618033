// The per-core task assignment a plan carries (paper Sec. 7.1: tables "can
// be incrementally re-computed on a per-core basis"), shared per core
// between a plan and the plans delta solves derive from it.
#ifndef SRC_CORE_CORE_TASKS_H_
#define SRC_CORE_CORE_TASKS_H_

#include <cstddef>
#include <iterator>
#include <memory>
#include <vector>

#include "src/common/time.h"
#include "src/rt/periodic_task.h"

namespace tableau {

// The periodic tasks of each shared core, with each core's demand per
// kHyperperiodNs cached (every period must divide it). A core's list is
// never changed while another CoreTasks shares it: copying a CoreTasks
// copies one pointer per core, and Append and Erase copy a shared list
// before editing it, so a delta solve pays only for the cores it changes.
// Indexing and iteration yield each core's list as a
// const std::vector<PeriodicTask>&.
class CoreTasks {
  struct Core;
  using Slot = std::vector<std::shared_ptr<Core>>::const_iterator;

 public:
  using List = std::vector<PeriodicTask>;

  class Iterator {
   public:
    using value_type = List;
    using reference = const List&;
    using pointer = const List*;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    reference operator*() const { return ListOf(*at_); }
    Iterator& operator++() {
      ++at_;
      return *this;
    }
    bool operator==(const Iterator&) const = default;

   private:
    friend class CoreTasks;
    explicit Iterator(Slot at) : at_(at) {}
    Slot at_;
  };

  CoreTasks() = default;
  // Implicit, so a plain list per core converts where a CoreTasks is read.
  CoreTasks(std::vector<List> lists);  // NOLINT(google-explicit-constructor)

  std::size_t size() const { return cores_.size(); }
  const List& operator[](std::size_t core) const { return ListOf(cores_[core]); }
  // Sum of the core's per-hyperperiod task demands.
  TimeNs demand(std::size_t core) const;
  Iterator begin() const { return Iterator(cores_.begin()); }
  Iterator end() const { return Iterator(cores_.end()); }

  void Append(std::size_t core, const PeriodicTask& task);
  // Removes the core's tasks of `vcpu`.
  void Erase(std::size_t core, VcpuId vcpu);

 private:
  static const List& ListOf(const std::shared_ptr<Core>& core);
  // The core's entry, ready to edit: copied first (with room for one more
  // task) if another CoreTasks shares it.
  Core& Edit(std::size_t core);

  std::vector<std::shared_ptr<Core>> cores_;  // Null for an empty list.
};

}  // namespace tableau

#endif  // SRC_CORE_CORE_TASKS_H_
