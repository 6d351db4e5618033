// Reference queries over a built SchedulingTable that tests use as oracles:
// plain scans of every pCPU's allocation list, independent of the slice
// table, Lookup and the TableVerifier.
#ifndef TESTS_TABLE_ORACLES_H_
#define TESTS_TABLE_ORACLES_H_

#include <algorithm>
#include <vector>

#include "src/common/check.h"
#include "src/table/scheduling_table.h"

namespace tableau {

// Reference lookup: a scan of the pCPU's allocation list from its start, the
// oracle for SchedulingTable::Lookup's slice table. `offset` must be in
// [0, length).
inline LookupResult LookupLinear(const SchedulingTable& table, int cpu, TimeNs offset) {
  TABLEAU_CHECK(offset >= 0 && offset < table.length());
  for (const Allocation& alloc : table.cpu(cpu).allocations) {
    if (offset < alloc.start) {
      return LookupResult{kIdleVcpu, alloc.start};
    }
    if (offset < alloc.end) {
      return LookupResult{alloc.vcpu, alloc.end};
    }
  }
  return LookupResult{kIdleVcpu, table.length()};
}

// All pCPUs on which `vcpu` has at least one allocation, ascending.
inline std::vector<int> CpusOf(const SchedulingTable& table, VcpuId vcpu) {
  std::vector<int> cpus;
  for (int c = 0; c < table.num_cpus(); ++c) {
    for (const Allocation& alloc : table.cpu(c).allocations) {
      if (alloc.vcpu == vcpu) {
        cpus.push_back(c);
        break;
      }
    }
  }
  return cpus;
}

// Total service received by `vcpu` over the whole table, across all pCPUs.
inline TimeNs TotalService(const SchedulingTable& table, VcpuId vcpu) {
  TimeNs total = 0;
  for (int c = 0; c < table.num_cpus(); ++c) {
    for (const Allocation& alloc : table.cpu(c).allocations) {
      if (alloc.vcpu == vcpu) {
        total += alloc.Length();
      }
    }
  }
  return total;
}

// Longest contiguous interval (cyclic, across pCPUs) during which `vcpu`
// has no allocation: the "blackout time" of Sec. 4. Returns the table
// length if the vCPU has no allocations at all.
inline TimeNs MaxBlackout(const SchedulingTable& table, VcpuId vcpu) {
  std::vector<Allocation> service;
  for (int c = 0; c < table.num_cpus(); ++c) {
    for (const Allocation& alloc : table.cpu(c).allocations) {
      if (alloc.vcpu == vcpu) {
        service.push_back(alloc);
      }
    }
  }
  if (service.empty()) {
    return table.length();
  }
  std::sort(service.begin(), service.end(),
            [](const Allocation& a, const Allocation& b) { return a.start < b.start; });
  TimeNs max_gap = 0;
  TimeNs covered_until = service.front().end;
  for (std::size_t i = 1; i < service.size(); ++i) {
    if (service[i].start > covered_until) {
      max_gap = std::max(max_gap, service[i].start - covered_until);
    }
    covered_until = std::max(covered_until, service[i].end);
  }
  // Cyclic wrap: gap from the last service to the first of the next cycle.
  const TimeNs wrap_gap = (table.length() - covered_until) + service.front().start;
  return std::max(max_gap, wrap_gap);
}

}  // namespace tableau

#endif  // TESTS_TABLE_ORACLES_H_
