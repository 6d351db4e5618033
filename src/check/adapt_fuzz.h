// Property-based fuzzing of the closed-loop adaptive reservation
// controller (src/adapt) driving a real fleet::Host through the planner's
// delta path, with shrinking reproducers.
//
// An AdaptScenarioSpec is a fully serializable description of one closed
// loop: host shape, controller policy, per-VM initial reservations and a
// per-window synthetic demand trace (bursty regimes, saturation spikes, and
// explicit no-data windows). RunAdaptScenario() admits the VMs into a real
// host, feeds the demand trace to the controller one window at a time at
// deterministic barrier times, applies every non-hold decision through
// Host::ResizeVms (one batched delta solve under ReplanController backoff),
// and checks the battery of properties:
//
//  (a) every installed resize's table passes the TableVerifier;
//  (b) hysteresis: committed resizes respect the deadbands and are at
//      least cooldown_windows + 1 data windows apart per VM;
//  (c) the controller never shrinks a VM below the independently recomputed
//      floor quantile of its observed demand window, and never leaves the
//      VM's [min, max] clamps;
//  (d) a no-data window never triggers a resize (idle VMs hold).
//
// Violations shrink through greedy deterministic delta-debugging passes to
// a minimal reproducer ("tableau-adapt-repro v1" text) for tests/repro/adapt/.
#ifndef SRC_CHECK_ADAPT_FUZZ_H_
#define SRC_CHECK_ADAPT_FUZZ_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/adapt/controller.h"
#include "src/check/shrink.h"
#include "src/common/time.h"

namespace tableau::check {

struct AdaptVmFuzzSpec {
  double initial = 0.25;
  TimeNs latency_goal = 20 * kMillisecond;
  // Observed demand fraction per window; a negative value encodes an
  // explicit no-data window (the VM was idle).
  std::vector<double> demand;
};

struct AdaptScenarioSpec {
  std::uint64_t seed = 1;
  int num_cpus = 4;
  int cores_per_socket = 2;
  int slots_per_core = 2;
  TimeNs window_ns = 10 * kMillisecond;
  int windows = 16;
  // Host-wide resize clamps and the controller policy under test.
  double min_utilization = 1.0 / 32;
  double max_utilization = 1.0;
  adapt::PolicyConfig policy;
  std::vector<AdaptVmFuzzSpec> vms;
};

// Text round-trip ("tableau-adapt-repro v1" header + key=value lines, one
// repeated vm= line per VM). ParseAdaptSpec returns nullopt on malformed
// input.
std::string FormatAdaptSpec(const AdaptScenarioSpec& spec);
std::optional<AdaptScenarioSpec> ParseAdaptSpec(const std::string& text);

// Draws a random spec from the seed, retrying a bounded number of attempt
// salts until the initial VM set actually admits on the host (deterministic
// per seed).
AdaptScenarioSpec GenerateAdaptSpec(std::uint64_t seed);

// True when every VM of the spec admits into a freshly built host.
bool FeasibleAdaptSpec(const AdaptScenarioSpec& spec);

struct AdaptCheckOutcome {
  std::vector<std::string> violations;
  // One line per installed resize ("w=<window> slot=<s> <old>-><new>") —
  // the determinism fingerprint of the control loop.
  std::vector<std::string> resize_log;
  int resizes = 0;
};

// Builds, runs, and checks one closed-loop scenario.
AdaptCheckOutcome RunAdaptScenario(const AdaptScenarioSpec& spec);

// Stable bucket for "the same bug": the leading prefix of the first
// violation message up to its first ':'. Empty when there are none.
std::string AdaptCategoryOf(const std::vector<std::string>& violations);

// Greedy deterministic delta-debugging (GreedyShrink, src/check/shrink.h):
// drop VMs, truncate the window trace, flatten demand to its mean,
// materialize no-data windows — keeping any pass that still reproduces
// `category`. An empty category returns the spec unchanged.
ShrinkResult<AdaptScenarioSpec> ShrinkAdaptSpec(const AdaptScenarioSpec& spec,
                                                const std::string& category);

}  // namespace tableau::check

#endif  // SRC_CHECK_ADAPT_FUZZ_H_
