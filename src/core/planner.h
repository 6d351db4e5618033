// The Tableau planner (paper Sec. 5): turns a set of per-vCPU (utilization,
// latency) reservations into a concrete cyclic scheduling table.
//
// Pipeline:
//   1. vCPUs with U >= 1 get dedicated cores.
//   2. Remaining vCPUs are mapped to periodic tasks over the fixed
//      hyperperiod's divisor set (Sec. 5, "Mapping to periodic tasks").
//   3. Admission control rejects over-utilized configurations.
//   4. Worst-fit-decreasing partitioning; per-core EDF simulation yields the
//      table ("Partitioning").
//   5. On failure, C=D semi-partitioning ("Semi-partitioning").
//   6. On failure, DP-Fair cluster scheduling over a growing cluster of
//      cores ("Localized optimal scheduling").
//   7. Post-processing: sub-threshold allocation coalescing and slice-table
//      construction for O(1) dispatch ("Post-processing").
//
// The planner is a pure function of its inputs and can run anywhere (in the
// paper: a dom0 userspace daemon); it shares no state with the dispatcher
// except the produced table.
#ifndef SRC_CORE_PLANNER_H_
#define SRC_CORE_PLANNER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/core/core_tasks.h"
#include "src/faults/fault_injector.h"
#include "src/obs/metrics.h"
#include "src/rt/hyperperiod.h"
#include "src/rt/periodic_task.h"
#include "src/table/scheduling_table.h"

namespace tableau {

struct PlannerConfig {
  int num_cpus = 16;
  // Allocations shorter than this are coalesced away (Sec. 5 post-processing;
  // determined by context-switch overheads). Tables span kHyperperiodNs, and
  // C=D pieces are at least kMinPeriodNs long.
  TimeNs coalesce_threshold = 30 * kMicrosecond;
  // Enables the peephole reordering pass (src/core/peephole.h), which
  // reduces preemptions by defragmenting jobs within their period windows.
  bool peephole_pass = false;
  // Socket width for NUMA-affine placement (VcpuRequest::socket_affinity).
  // 0 disables affinity handling (the machine is treated as flat).
  int cores_per_socket = 0;
  // Optional phase-timing sink (planner.* metrics: wall-clock histograms per
  // pipeline stage). Not owned; must outlive the planner. Null disables
  // instrumentation entirely.
  obs::MetricsRegistry* metrics = nullptr;
  // When false, the registry above receives only the deterministic planner
  // counters (plans, admission ladder) — the wall-clock phase histograms are
  // skipped. Fleet hosts use this so merged fleet metrics are byte-identical
  // across runs and execution modes.
  bool wall_timings = true;
  // Optional fault injector (not owned; must outlive the planner). Solve()
  // draws one planner outcome per call; injected failures/timeouts surface
  // as PlanFailure::kInjected results for the caller's degradation policy.
  faults::FaultInjector* fault_injector = nullptr;
  // Graceful degradation on admission-control rejection: Solve() retries the
  // full plan with every latency goal doubled, stepwise, up to
  // max_latency_degradations times before giving up (0 disables; failures
  // then surface directly). Each retry increments
  // planner.latency_degradations.
  int max_latency_degradations = 0;
};

enum class PlanMethod { kPartitioned, kSemiPartitioned, kClustered };

inline const char* PlanMethodName(PlanMethod m) {
  switch (m) {
    case PlanMethod::kPartitioned:
      return "partitioned";
    case PlanMethod::kSemiPartitioned:
      return "semi-partitioned";
    case PlanMethod::kClustered:
      return "clustered";
  }
  return "?";
}

// Per-vCPU outcome of planning.
struct VcpuPlan {
  VcpuId vcpu = kIdleVcpu;
  double requested_utilization = 0;
  TimeNs latency_goal = 0;
  // Chosen periodic-task parameters (0/0 for dedicated vCPUs).
  TimeNs cost = 0;
  TimeNs period = 0;
  double effective_utilization = 0;
  // Guaranteed upper bound on scheduling latency: 2 * (T - C).
  TimeNs blackout_bound = 0;
  bool latency_goal_met = false;
  bool dedicated = false;
  bool split = false;  // Received allocations on more than one core.
  // Time per hyperperiod lost to coalescing of sub-threshold slivers
  // (Sec. 5 post-processing). The granted share is at least
  // effective_utilization - donated_ns / hyperperiod.
  TimeNs donated_ns = 0;
};

// Machine-readable failure taxonomy, so degradation policies can react
// without parsing error strings.
enum class PlanFailure {
  kNone,            // success == true
  kInvalidRequest,  // Malformed input (bad utilization, duplicate ids, ...).
  kAdmission,       // Admission control: demand exceeds capacity or a
                    // reservation is unmappable at its latency goal.
                    // Candidate for stepwise latency-goal degradation.
  kInternal,        // Pipeline failure (pathological rounding).
  kInjected,        // FaultInjector-injected failure or timeout.
};

// Per-solve admission fast-path breakdown: how many admission/schedulability
// decisions the analytic ladder (src/rt/admission.h) resolved at each rung.
// `utilization`, `density`, and `qpa` decisions cost a linear or
// pseudo-polynomial analytic test; `simulation` decisions required a full
// EDF table simulation. Mirrored into the planner.admission.* counters when
// a metrics registry is configured.
struct AdmissionBreakdown {
  std::int64_t utilization = 0;
  std::int64_t density = 0;
  std::int64_t qpa = 0;
  std::int64_t simulation = 0;

  std::int64_t analytic() const { return utilization + density + qpa; }
  std::int64_t total() const { return analytic() + simulation; }
};

// Where a planned vCPU sits: the position of its plan in PlanResult::vcpus
// (on a plan a delta solve can reuse, also of its request in `requests`),
// and, in a partitioned plan, the core whose task list holds it (-1 for a
// dedicated vCPU and for every vCPU of other plans).
struct VcpuIndexEntry {
  VcpuId vcpu = kIdleVcpu;
  std::int32_t position = 0;
  std::int32_t core = -1;
};

struct PlanResult {
  bool success = false;
  std::string error;
  PlanFailure failure = PlanFailure::kNone;
  // Which admission ladder rung decided each admission decision of this
  // solve (degradation retries accumulate into the final result).
  AdmissionBreakdown admission;
  // Latency-degradation steps Solve() applied before this plan succeeded
  // (0 = the original goals were met as requested).
  int degradation_steps = 0;
  PlanMethod method = PlanMethod::kPartitioned;
  SchedulingTable table;
  std::vector<VcpuPlan> vcpus;
  // Per-shared-core task assignment (fully populated for partitioned and
  // semi-partitioned plans; empty entries for clustered cores). Consumed by
  // delta solves to avoid replanning untouched cores, which share each
  // untouched core's list with this plan.
  CoreTasks core_tasks;
  // Original requests, keyed by vCPU (for incremental replanning).
  std::vector<VcpuRequest> requests;
  // One entry per plan in `vcpus`, ascending by vCPU id: a delta solve finds
  // a vCPU's core and plan through it.
  std::vector<VcpuIndexEntry> vcpu_index;
  // Cores whose allocations changed relative to the previous plan (only set
  // by delta solves; a full solve marks every core dirty).
  std::vector<int> dirty_cores;
};

// The planner's single entry-point request (api_redesign): one object covers
// both full and incremental planning.
//
//  - previous == nullptr: a full plan over `requests` (added/departed must be
//    empty).
//  - previous != nullptr: incremental replanning from *previous — `departed`
//    vCPUs leave, `added` ones are placed, and `requests` is ignored (the
//    merged set derives from previous->requests).
struct PlanRequest {
  std::vector<VcpuRequest> requests;
  const PlanResult* previous = nullptr;  // Not owned; may dangle after Solve.
  std::vector<VcpuRequest> added;
  std::vector<VcpuId> departed;

  // Named constructors for the two request shapes.
  static PlanRequest Full(std::vector<VcpuRequest> requests) {
    PlanRequest request;
    request.requests = std::move(requests);
    return request;
  }
  static PlanRequest Delta(const PlanResult& previous,
                           std::vector<VcpuRequest> added = {},
                           std::vector<VcpuId> departed = {}) {
    PlanRequest request;
    request.previous = &previous;
    request.added = std::move(added);
    request.departed = std::move(departed);
    return request;
  }
};

// Debug-mode audit hook: when set, every successful Planner::Solve — from
// tests, benches, tools, and the harness alike — hands its PlanResult and the
// planner's configuration to the hook before returning. The verification
// subsystem (src/check/table_verifier.h) installs a hook that re-derives the
// reservation contract and aborts on violation, turning every planner call in
// the process into a property check. Pass nullptr to uninstall. The hook is
// process-global and mutex-protected; it must be reentrant if planning runs
// on several threads.
using PlanAuditHook = std::function<void(const PlanResult&, const PlannerConfig&)>;
void SetPlanAuditHook(PlanAuditHook hook);

class Planner {
 public:
  explicit Planner(PlannerConfig config);

  // The single planner entry point. All planning — harness, benches, tools —
  // funnels through here: this is where injected planner failures
  // (PlannerConfig::fault_injector) and the stepwise latency-goal
  // degradation policy attach, exactly once per solve. Thread-compatible;
  // Solve() is const, and reentrant unless the planner has a metrics
  // registry, which makes it single-writer like the registry.
  PlanResult Solve(const PlanRequest& request) const;

  const PlannerConfig& config() const { return config_; }

  // Handles for the planner.* metrics the pipeline records into; all null
  // without a registry (the phase timers also without wall_timings).
  struct PhaseMetrics {
    obs::LatencyHistogram* partition = nullptr;
    obs::LatencyHistogram* edf_core_sim = nullptr;
    obs::LatencyHistogram* cd_split = nullptr;
    obs::LatencyHistogram* cluster = nullptr;
    obs::LatencyHistogram* coalesce = nullptr;
    obs::LatencyHistogram* table_build = nullptr;
    obs::LatencyHistogram* validate = nullptr;
    obs::LatencyHistogram* plan_total = nullptr;
    obs::Counter* plans = nullptr;
    obs::Counter* incremental_plans = nullptr;
    // Admission fast-path ladder: decisions resolved per rung.
    obs::Counter* admission_utilization = nullptr;
    obs::Counter* admission_density = nullptr;
    obs::Counter* admission_qpa = nullptr;
    obs::Counter* admission_simulation = nullptr;
  };

 private:
  // The handles, looked up by the first solve that reaches the pipeline, so
  // a planner that never does adds no entries to its registry's snapshot.
  const PhaseMetrics& Metrics() const;

  // Solve() minus the audit hook: injection draw, pipeline dispatch (a full
  // or a delta solve; see planner.cc), and the degradation loop. Split out so
  // the hook observes exactly one final result per Solve (degradation
  // retries are internal). A delta solve checks only its added requests:
  // `previous` must come from a planner with this configuration, so its
  // requests passed the same checks.
  PlanResult SolveImpl(const PlanRequest& request) const;

  PlannerConfig config_;
  mutable PhaseMetrics metrics_;
  mutable bool metrics_resolved_;
};

}  // namespace tableau

#endif  // SRC_CORE_PLANNER_H_
