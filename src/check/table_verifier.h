// Independent verification of the Tableau reservation contract (paper
// Sec. 5): a machine-checked re-derivation of what a scheduling table
// *promises*, applied to any SchedulingTable regardless of which pipeline
// (partitioned EDF, C=D semi-partitioning, DP-Fair clustering, peephole,
// coalescing, co-scheduling) produced it.
//
// The verifier deliberately shares no code with SchedulingTable::Validate()
// or the planner: it re-checks structure from first principles (ordering,
// bounds, slice-table agreement against a binary-search reference lookup,
// cross-core exclusion) and then checks the per-vCPU supply contract:
//
//  - window supply: in every aligned period window [kT, (k+1)T) the vCPU
//    receives at least C - donated_ns, and the summed shortfall across all
//    windows never exceeds the coalescing donation the planner accounted;
//  - donation budget: coalescing may shave at most two sub-threshold
//    slivers per period window off a reservation;
//  - blackout: the longest cyclic service gap is at most 2(T - C), plus
//    slack for donated slivers (a dropped sliver merges its two adjacent
//    gaps);
//  - dedicated vCPUs own a full core (supply == table length, no gap);
//  - C=D split legality: split pieces live on >= 2 cores and never overlap
//    in time (cross-core exclusion), with the window/blackout checks
//    covering the summed supply.
//
// Violations come back as human-readable strings; an empty vector means the
// table honors every contract.
#ifndef SRC_CHECK_TABLE_VERIFIER_H_
#define SRC_CHECK_TABLE_VERIFIER_H_

#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/core/planner.h"
#include "src/table/scheduling_table.h"

namespace tableau::check {

// The reservation a table must honor for one vCPU, as the planner reported
// it (VcpuPlan) or as a test constructs it by hand.
struct VcpuContract {
  VcpuId vcpu = kIdleVcpu;
  TimeNs cost = 0;    // C per period (0 for dedicated vCPUs).
  TimeNs period = 0;  // T; must divide the table length (0 for dedicated).
  bool dedicated = false;
  bool split = false;
  // Time per table round the planner donated away from this vCPU during
  // coalescing; the supply checks grant exactly this much slack.
  TimeNs donated_ns = 0;
};

struct VerifyOptions {
  // Planner post-processing parameters the slack terms derive from. A zero
  // coalesce_threshold disables the donation-budget and min-allocation
  // checks (for hand-built tables that never went through coalescing).
  TimeNs coalesce_threshold = 30 * kMicrosecond;
  // When non-zero, the table length must equal this exactly.
  TimeNs expected_length = 0;
};

// Verifies `table` against the contracts. Returns every violation found
// (not just the first); empty means the contract holds.
std::vector<std::string> VerifyTable(const SchedulingTable& table,
                                     const std::vector<VcpuContract>& contracts,
                                     const VerifyOptions& options);

// Derives the contracts a successful plan claims to honor from its VcpuPlan
// entries.
std::vector<VcpuContract> ContractsOf(const PlanResult& plan);

// Verifies a successful plan's table against its own claimed contracts,
// with options derived from the planner configuration.
std::vector<std::string> VerifyPlan(const PlanResult& plan, const PlannerConfig& config);

// Installs a Planner audit hook (SetPlanAuditHook) that runs VerifyPlan on
// every successful Solve in the process and aborts with a full violation
// report on failure. Used by the planner/parallel-plan test suites and the
// bench harness (TABLEAU_VERIFY_TABLES=1) to turn every planned table into a
// property check. Uninstall with SetPlanAuditHook(nullptr).
void InstallPlannerVerification();

}  // namespace tableau::check

#endif  // SRC_CHECK_TABLE_VERIFIER_H_
