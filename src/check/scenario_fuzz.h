// Property-based scenario fuzzing with shrinking.
//
// A ScenarioSpec is a small, fully serializable description of one randomized
// end-to-end run: scheduler, machine shape, VM mix (sizes, reservations,
// workloads), fault intensity, optional runtime replan, slip tolerance, and
// an optional scheduler mutant. Everything derives from the seed through the
// repo's deterministic Rng, so a spec replays byte-identically.
//
// RunCheckedScenario() builds the scenario through the real harness
// (BuildVmScenario), verifies every planned table with the TableVerifier,
// runs the machine with tracing on, and replays the full event trace through
// the differential oracle matching the scheduler — returning every violation
// found. Zero violations is the property the check suite asserts over
// thousands of seeds.
//
// When a violation does appear, Shrink() delta-debugs the spec: greedy,
// deterministic passes (drop a VM, shrink a VM, halve the duration, strip
// faults/replans/mutation knobs, remove a core) re-run the scenario and keep
// any candidate that still reproduces the same violation category, looping
// until no pass makes progress. The result is a minimal reproducer whose
// serialized form (FormatSpec) goes into tests/repro/ and replays through
// `tableau check replay` or the repro-corpus test.
#ifndef SRC_CHECK_SCENARIO_FUZZ_H_
#define SRC_CHECK_SCENARIO_FUZZ_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/check/mutants.h"
#include "src/check/shrink.h"
#include "src/common/time.h"
#include "src/schedulers/factory.h"

namespace tableau::check {

// Workload attached to every vCPU of a VM (src/workloads).
enum class WorkloadKind { kHog, kStress, kStressHeavy, kNoise, kPing };

const char* WorkloadKindName(WorkloadKind kind);
std::optional<WorkloadKind> WorkloadKindFromName(std::string_view name);

struct VmFuzzSpec {
  int vcpus = 1;
  double utilization = 0.25;  // Per-vCPU reservation.
  TimeNs latency_goal = 20 * kMillisecond;
  WorkloadKind workload = WorkloadKind::kHog;
  bool gang = false;
};

struct ScenarioSpec {
  std::uint64_t seed = 1;
  SchedKind scheduler = SchedKind::kTableau;
  bool capped = false;
  int guest_cpus = 2;
  int cores_per_socket = 2;
  TimeNs duration = 50 * kMillisecond;
  // ChaosPlan intensity in [0, 1]; 0 = fault-free.
  double fault_intensity = 0.0;
  std::uint64_t fault_seed = 1;
  // Injected planner failure probability (exercises ReplanController).
  double planner_failure = 0.0;
  // Non-zero: attempt a runtime replan (same requests) from this time on,
  // through ReplanController, until one installs. Tableau only.
  TimeNs replan_at = 0;
  // Dispatcher switch_slip_tolerance; 0 = kTimeNever (promote late).
  TimeNs slip_ns = 0;
  MutantKind mutant = MutantKind::kNone;
  int mutant_stride = 0;
  std::vector<VmFuzzSpec> vms;

  int TotalVcpus() const {
    int total = 0;
    for (const VmFuzzSpec& vm : vms) total += vm.vcpus;
    return total;
  }
};

// Text round-trip ("tableau-repro v1" header + key=value lines, one repeated
// vm= line per VM). ParseSpec returns nullopt on malformed input: an unknown
// key or vm= field, or a value that does not parse in full.
std::string FormatSpec(const ScenarioSpec& spec);
std::optional<ScenarioSpec> ParseSpec(const std::string& text);

// Draws a random spec from the seed. Internally retries a bounded number of
// attempt salts until FeasibleSpec() accepts, so the result always builds
// without tripping the harness's planner-success check; deterministic per
// seed.
ScenarioSpec GenerateSpec(std::uint64_t seed);

// True when the spec can be built by the harness: scheduler/cap constraints
// hold, reservations are mappable, and (for Tableau) a fault-free dry-run
// plan admits the VM set.
bool FeasibleSpec(const ScenarioSpec& spec);

struct CheckOutcome {
  std::vector<std::string> violations;
  std::uint64_t records = 0;  // Trace records replayed through the oracle.
};

// Builds, runs, and checks one scenario. Aborts only on harness-level
// invariant failures (infeasible spec); every checkable property violation
// comes back in the outcome instead.
CheckOutcome RunCheckedScenario(const ScenarioSpec& spec);

// Stable bucket for "the same bug": the leading non-numeric prefix of the
// first violation message. Empty when there are no violations.
std::string CategoryOf(const std::vector<std::string>& violations);

// Greedy deterministic delta-debugging (GreedyShrink, src/check/shrink.h):
// repeatedly applies the first shrinking pass that still reproduces
// `category` until none does. An empty category returns the spec unchanged.
ShrinkResult<ScenarioSpec> Shrink(const ScenarioSpec& spec,
                                  const std::string& category);

}  // namespace tableau::check

#endif  // SRC_CHECK_SCENARIO_FUZZ_H_
