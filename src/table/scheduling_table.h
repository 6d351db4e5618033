// Tableau scheduling-table structures (paper Fig. 2).
//
// A table covers one hyperperiod and holds, per pCPU, a time-ordered list of
// non-overlapping variable-length allocations. To give the dispatcher O(1)
// lookups, each pCPU also carries a *slice table*: fixed-size time slices no
// longer than the shortest allocation on that pCPU, so each slice overlaps
// at most two allocations (plus possibly idle time between them).
// A lookup indexes the slice table with (now mod table length) and then
// inspects at most two allocation records.
#ifndef SRC_TABLE_SCHEDULING_TABLE_H_
#define SRC_TABLE_SCHEDULING_TABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/rt/edf_sim.h"
#include "src/rt/periodic_task.h"

namespace tableau {

// Per-pCPU portion of a scheduling table. SchedulingTable::Build derives
// every field but `allocations` from it: `slice_floor[s]` is the index of the
// first allocation whose end lies past slice s's start (`allocations.size()`
// when none does), and a lookup reads that allocation or its successor.
// A built CpuTable is immutable and shared: a table Rebuild derives holds
// the same CpuTable as its source for every pCPU the delta did not touch.
struct CpuTable {
  std::vector<Allocation> allocations;  // Sorted by start, non-overlapping.
  TimeNs slice_length = 0;
  std::vector<std::int32_t> slice_floor;
  // Every vCPU with at least one allocation on this pCPU, ascending: the
  // candidates for second-level scheduling here ("core-local" vCPUs, Sec. 4;
  // the dispatcher applies the trailing-core policy to split vCPUs). A vCPU
  // holding time on several pCPUs is listed on each of them, which Validate
  // relies on to find the only vCPUs that can run on two pCPUs at once.
  std::vector<VcpuId> local_vcpus;

  std::size_t num_slices() const { return slice_floor.size(); }
};

// Result of a dispatcher lookup at a table offset.
struct LookupResult {
  // vCPU reserved for the current interval, or kIdleVcpu.
  VcpuId vcpu = kIdleVcpu;
  // End of the current interval (table-relative offset in (0, length]): the
  // next point at which the dispatcher must re-decide.
  TimeNs interval_end = 0;
};

class SchedulingTable {
 public:
  // Builds a table of the given length from per-CPU allocation lists
  // (unsorted input is sorted; overlap or bounds violations abort). Build and
  // Rebuild are the only ways a table comes to exist, and both derive a
  // fresh pCPU's slice table and local-vCPU list with one per-pCPU function.
  // The slice length is the shortest allocation on the pCPU (the table
  // length on an idle one) rounded *down* to a power of two, so lookups
  // index with a shift; the rounding at most doubles the slice count (Fig. 4
  // table-size tradeoff) and preserves the at-most-two-overlaps invariant,
  // since slices only get shorter.
  static SchedulingTable Build(TimeNs length, std::vector<std::vector<Allocation>> per_cpu);

  // Derives a table of the same length and pCPU count from this one, for a
  // delta solve: pCPU c shares this table's CpuTable when `changed[c]` is
  // false (per_cpu[c] is then ignored; nothing is copied), and is built from
  // per_cpu[c] exactly as Build would otherwise. Either size differing from
  // num_cpus() aborts.
  SchedulingTable Rebuild(const std::vector<bool>& changed,
                          std::vector<std::vector<Allocation>> per_cpu) const;

  TimeNs length() const { return length_; }
  int num_cpus() const { return static_cast<int>(cpus_.size()); }
  const CpuTable& cpu(int index) const { return *cpus_[static_cast<std::size_t>(index)]; }

  // O(1) lookup via the slice table. `offset` must be in [0, length).
  LookupResult Lookup(int cpu, TimeNs offset) const;

  // Checks the one invariant Build cannot: that no vCPU is allocated on two
  // pCPUs at the same instant (pieces that only touch are legal). Build
  // rejects overlap within a pCPU, so only vCPUs listed in two or more
  // pCPUs' `local_vcpus` are examined, and a partitioned table passes
  // without reading its allocations. Returns an empty string on success,
  // else a description naming the lowest violating vCPU id.
  std::string Validate() const;

  // Validate() for a table Rebuilt from a valid one, `changed` naming the
  // rebuilt pCPUs: pairs of unchanged pCPUs held a valid table, so only a
  // vCPU listed on a changed pCPU can violate, and only those are examined.
  // The verdict and message then equal Validate()'s.
  std::string Validate(const std::vector<bool>& changed) const;

  // Binary wire format v1 (the "hypercall format" pushed by the planner).
  // Deserialize reads the allocation lists, skips the derived slice and
  // local-vCPU data, and rebuilds the table through Build; it returns
  // nullopt for a malformed blob instead of aborting.
  std::vector<std::uint8_t> Serialize() const;
  static std::optional<SchedulingTable> Deserialize(const std::vector<std::uint8_t>& bytes);
  std::size_t SerializedSizeBytes() const;

 private:
  // The Validate message for the lowest vCPU of `spread` (ascending) that is
  // allocated on two pCPUs at one instant, or "".
  std::string FirstConcurrent(const std::vector<VcpuId>& spread) const;

  TimeNs length_ = 0;
  // Copying a table copies these pointers, not the per-pCPU data.
  std::vector<std::shared_ptr<const CpuTable>> cpus_;
};

// Analytical wake-up latency profile of a vCPU under a table (capped mode):
// a request arriving at a uniformly random instant is served immediately if
// it lands inside one of the vCPU's allocations, and otherwise waits for the
// next allocation to start. Derived in closed form from the vCPU's service
// gaps; validates the simulator's measured ping latencies (Fig. 6) against
// pure table structure.
struct LatencyProfile {
  double service_fraction = 0;  // P(arrival lands in service).
  TimeNs mean = 0;              // E[wait].
  TimeNs p99 = 0;               // 99th percentile of wait.
  TimeNs max = 0;               // Longest possible wait: the longest blackout.
};
LatencyProfile AnalyzeWakeupLatency(const SchedulingTable& table, VcpuId vcpu);

// Post-processing pass: absorbs allocations shorter than `threshold` into a
// time-adjacent neighbouring allocation (Sec. 5, "Post-processing"), since
// sub-threshold slivers cannot be enforced given context-switch overheads.
// Isolated sub-threshold slivers (idle on both sides) become idle time, and
// so does a sliver whose neighbour's vCPU runs on another core meanwhile:
// coalescing never puts a vCPU on two cores at once.
// Returns the total time donated away from each affected vCPU via
// `donated_out` (indexed by vCPU id) for accounting.
std::vector<std::vector<Allocation>> CoalesceAllocations(
    std::vector<std::vector<Allocation>> per_cpu, TimeNs threshold,
    std::vector<std::pair<VcpuId, TimeNs>>* donated_out);

}  // namespace tableau

#endif  // SRC_TABLE_SCHEDULING_TABLE_H_
