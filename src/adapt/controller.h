// Closed-loop reservation controller: converts per-VM windowed demand
// observations into (U, L) resize decisions through a DemandPredictor and a
// hysteresis policy, entirely as pure arithmetic — the controller never
// touches the planner or the simulation engine. The owner (fleet::Host)
// feeds one ObserveWindow per VM per telemetry window at a deterministic
// barrier, applies the non-hold decisions through Planner::Solve's delta
// path, and reports back with CommitResize/RejectResize so the controller's
// view of the live reservation tracks what was actually installed.
//
// Policy invariants (fuzz-checked by tests/check_adapt_test.cc):
//  - A window with no data holds: a briefly-idle VM must not be resized to
//    its floor on the strength of silence (the fleet::Host::WindowView
//    "no data" signal, not 0.0 demand).
//  - Hysteresis: grow only when the target exceeds the live reservation by
//    grow_deadband, shrink only below it by shrink_deadband, and at most
//    one committed resize per cooldown_windows observed windows per VM.
//  - The target never shrinks below the VM's observed demand quantile
//    (floor_quantile over the predictor's retained ring) and is always
//    clamped to the VM's [min, max] and quantized up to the grid.
//  - Saturation (observed demand fraction at the window ceiling — the VM is
//    backlogged, so supply understates true demand) switches to
//    multiplicative growth probing, congestion-control style.
#ifndef SRC_ADAPT_CONTROLLER_H_
#define SRC_ADAPT_CONTROLLER_H_

#include <cstdint>
#include <vector>

#include "src/adapt/predictor.h"
#include "src/common/time.h"
#include "src/obs/metrics.h"

namespace tableau::adapt {

// Per-VM resize clamps, fixed at bind time (the tenant's contract).
struct VmLimits {
  double min_utilization = 1.0 / 64;
  double max_utilization = 1.0;
  TimeNs latency_goal = 20 * kMillisecond;
};

struct PolicyConfig {
  PredictorConfig predictor;
  // Multiplicative safety margin over predicted demand.
  double headroom = 1.3;
  // Reservations are quantized up to multiples of this grid.
  double quantize = 1.0 / 32;
  // Hysteresis deadbands around the live reservation.
  double grow_deadband = 1.0 / 64;
  double shrink_deadband = 1.0 / 16;
  // Minimum observed windows between committed resizes of one VM.
  int cooldown_windows = 4;
  // Observed demand fraction at or above this marks the window saturated.
  double saturation_threshold = 0.95;
  // Multiplicative growth probe applied to the live reservation while
  // saturated (supply-based prediction understates backlogged demand).
  double saturation_growth = 1.5;
  // Never shrink below this quantile of the retained demand observations.
  double floor_quantile = 0.99;
};

class AdaptiveController {
 public:
  enum class Action { kHold, kGrow, kShrink };

  struct Decision {
    Action action = Action::kHold;
    // Proposed new utilization; meaningful when action != kHold.
    double target = 0;
    bool no_data = false;
    bool saturated = false;
  };

  struct Counters {
    std::uint64_t observations = 0;
    std::uint64_t no_data = 0;
    std::uint64_t saturated = 0;
    std::uint64_t holds = 0;
    std::uint64_t cooldown_holds = 0;
    std::uint64_t grows = 0;
    std::uint64_t shrinks = 0;
    std::uint64_t commits = 0;
    std::uint64_t rejects = 0;
  };

  AdaptiveController() : AdaptiveController(PolicyConfig{}) {}
  explicit AdaptiveController(PolicyConfig config);

  const PolicyConfig& config() const { return config_; }

  // Registers `vm` with its initially admitted reservation. Ids are dense
  // small integers (the host's slot indices).
  void BindVm(int vm, double initial_utilization, const VmLimits& limits);
  void UnbindVm(int vm);
  bool bound(int vm) const;
  // The controller's view of the live reservation (last committed value).
  double reservation(int vm) const;
  const VmLimits& limits(int vm) const;

  // One closed telemetry window for `vm`. supply_fraction is the demand the
  // VM actually consumed (service / window); demand_fraction additionally
  // counts time spent runnable-waiting and is used only for saturation
  // detection. has_data == false means the window recorded no activity.
  Decision ObserveWindow(int vm, bool has_data, double supply_fraction,
                         double demand_fraction);

  // Actuation feedback: the owner installed (or failed to install) the
  // decided resize. Both start the VM's cooldown.
  void CommitResize(int vm, double utilization);
  void RejectResize(int vm);

  const Counters& counters() const { return counters_; }
  // Surfaces the counters as adapt.* gauges (snapshot-time; deterministic).
  void PublishMetrics(obs::MetricsRegistry* registry) const;

 private:
  struct VmState {
    bool bound = false;
    double reservation = 0;
    VmLimits limits;
    int cooldown_left = 0;
    DemandPredictor predictor;
  };

  VmState& StateOf(int vm);
  const VmState& StateOf(int vm) const;

  PolicyConfig config_;
  std::vector<VmState> vms_;
  Counters counters_;
};

}  // namespace tableau::adapt

#endif  // SRC_ADAPT_CONTROLLER_H_
