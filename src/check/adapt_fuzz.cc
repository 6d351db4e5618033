#include "src/check/adapt_fuzz.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "src/check/table_verifier.h"
#include "src/common/parse.h"
#include "src/common/rng.h"
#include "src/fleet/host.h"

namespace tableau::check {
namespace {

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  x ^= x >> 29;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 32;
  return x;
}

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string FormatDemand(const std::vector<double>& demand) {
  std::ostringstream out;
  for (std::size_t i = 0; i < demand.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    if (demand[i] < 0) {
      out << "x";  // Explicit no-data window.
    } else {
      out << FormatDouble(demand[i]);
    }
  }
  return out.str();
}

bool ParseDemand(const std::string& text, std::vector<double>* demand) {
  demand->clear();
  std::istringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token == "x") {
      demand->push_back(-1.0);
      continue;
    }
    double value = 0;
    if (!ParseValue(token, &value) || value < 0) {
      return false;
    }
    demand->push_back(value);
  }
  return true;
}

}  // namespace

std::string FormatAdaptSpec(const AdaptScenarioSpec& spec) {
  std::ostringstream out;
  out << "tableau-adapt-repro v1\n";
  out << "seed=" << spec.seed << "\n";
  out << "num_cpus=" << spec.num_cpus << "\n";
  out << "cores_per_socket=" << spec.cores_per_socket << "\n";
  out << "slots_per_core=" << spec.slots_per_core << "\n";
  out << "window_ns=" << spec.window_ns << "\n";
  out << "windows=" << spec.windows << "\n";
  out << "min_utilization=" << FormatDouble(spec.min_utilization) << "\n";
  out << "max_utilization=" << FormatDouble(spec.max_utilization) << "\n";
  out << "predictor_history=" << spec.policy.predictor.history << "\n";
  out << "predictor_fit_window=" << spec.policy.predictor.fit_window << "\n";
  out << "predictor_horizon=" << spec.policy.predictor.horizon << "\n";
  out << "predictor_quantile=" << FormatDouble(spec.policy.predictor.quantile)
      << "\n";
  out << "headroom=" << FormatDouble(spec.policy.headroom) << "\n";
  out << "quantize=" << FormatDouble(spec.policy.quantize) << "\n";
  out << "grow_deadband=" << FormatDouble(spec.policy.grow_deadband) << "\n";
  out << "shrink_deadband=" << FormatDouble(spec.policy.shrink_deadband) << "\n";
  out << "cooldown_windows=" << spec.policy.cooldown_windows << "\n";
  out << "saturation_threshold="
      << FormatDouble(spec.policy.saturation_threshold) << "\n";
  out << "saturation_growth=" << FormatDouble(spec.policy.saturation_growth)
      << "\n";
  out << "floor_quantile=" << FormatDouble(spec.policy.floor_quantile) << "\n";
  for (const AdaptVmFuzzSpec& vm : spec.vms) {
    out << "vm=init:" << FormatDouble(vm.initial)
        << " latency_ns:" << vm.latency_goal
        << " demand:" << FormatDemand(vm.demand) << "\n";
  }
  return out.str();
}

std::optional<AdaptScenarioSpec> ParseAdaptSpec(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "tableau-adapt-repro v1") {
    return std::nullopt;
  }
  AdaptScenarioSpec spec;
  spec.vms.clear();
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return std::nullopt;
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    bool ok = false;
    if (key == "seed") {
      ok = ParseValue(value, &spec.seed);
    } else if (key == "num_cpus") {
      ok = ParseValue(value, &spec.num_cpus);
    } else if (key == "cores_per_socket") {
      ok = ParseValue(value, &spec.cores_per_socket);
    } else if (key == "slots_per_core") {
      ok = ParseValue(value, &spec.slots_per_core);
    } else if (key == "window_ns") {
      ok = ParseValue(value, &spec.window_ns);
    } else if (key == "windows") {
      ok = ParseValue(value, &spec.windows);
    } else if (key == "min_utilization") {
      ok = ParseValue(value, &spec.min_utilization);
    } else if (key == "max_utilization") {
      ok = ParseValue(value, &spec.max_utilization);
    } else if (key == "predictor_history") {
      ok = ParseValue(value, &spec.policy.predictor.history);
    } else if (key == "predictor_fit_window") {
      ok = ParseValue(value, &spec.policy.predictor.fit_window);
    } else if (key == "predictor_horizon") {
      ok = ParseValue(value, &spec.policy.predictor.horizon);
    } else if (key == "predictor_quantile") {
      ok = ParseValue(value, &spec.policy.predictor.quantile);
    } else if (key == "headroom") {
      ok = ParseValue(value, &spec.policy.headroom);
    } else if (key == "quantize") {
      ok = ParseValue(value, &spec.policy.quantize);
    } else if (key == "grow_deadband") {
      ok = ParseValue(value, &spec.policy.grow_deadband);
    } else if (key == "shrink_deadband") {
      ok = ParseValue(value, &spec.policy.shrink_deadband);
    } else if (key == "cooldown_windows") {
      ok = ParseValue(value, &spec.policy.cooldown_windows);
    } else if (key == "saturation_threshold") {
      ok = ParseValue(value, &spec.policy.saturation_threshold);
    } else if (key == "saturation_growth") {
      ok = ParseValue(value, &spec.policy.saturation_growth);
    } else if (key == "floor_quantile") {
      ok = ParseValue(value, &spec.policy.floor_quantile);
    } else if (key == "vm") {
      AdaptVmFuzzSpec vm;
      std::istringstream fields(value);
      std::string field;
      bool have_init = false;
      bool have_demand = false;
      while (fields >> field) {
        const std::size_t colon = field.find(':');
        if (colon == std::string::npos) {
          return std::nullopt;
        }
        const std::string name = field.substr(0, colon);
        const std::string body = field.substr(colon + 1);
        bool field_ok = false;
        if (name == "init") {
          field_ok = ParseValue(body, &vm.initial);
          have_init = true;
        } else if (name == "latency_ns") {
          field_ok = ParseValue(body, &vm.latency_goal);
        } else if (name == "demand") {
          field_ok = ParseDemand(body, &vm.demand);
          have_demand = true;
        }
        if (!field_ok) {
          return std::nullopt;
        }
      }
      ok = have_init && have_demand;
      spec.vms.push_back(std::move(vm));
    }
    if (!ok) {
      return std::nullopt;
    }
  }
  if (spec.vms.empty()) {
    return std::nullopt;
  }
  return spec;
}

namespace {

// Structural validity: the spec names a buildable host, a policy the
// controller's constructor accepts, and VMs whose initial reservations obey
// their own clamps. No planner consultation (that is FeasibleAdaptSpec).
bool AdaptShapeOk(const AdaptScenarioSpec& spec) {
  if (spec.num_cpus < 1 || spec.cores_per_socket < 1 ||
      spec.cores_per_socket > spec.num_cpus || spec.slots_per_core < 1 ||
      spec.window_ns <= 0 || spec.windows < 1 || spec.vms.empty()) {
    return false;
  }
  if (static_cast<int>(spec.vms.size()) >
      spec.num_cpus * spec.slots_per_core) {
    return false;
  }
  if (!(spec.min_utilization > 0) ||
      spec.min_utilization > spec.max_utilization ||
      spec.max_utilization > 1.0) {
    return false;
  }
  const adapt::PolicyConfig& policy = spec.policy;
  if (policy.headroom < 1.0 || !(policy.quantize > 0) ||
      policy.grow_deadband < 0 || policy.shrink_deadband < 0 ||
      policy.cooldown_windows < 0 || policy.saturation_growth < 1.0 ||
      policy.predictor.history < 1 || policy.predictor.fit_window < 2 ||
      policy.predictor.horizon < 0 || policy.predictor.quantile < 0 ||
      policy.predictor.quantile > 1 || policy.floor_quantile < 0 ||
      policy.floor_quantile > 1) {
    return false;
  }
  for (const AdaptVmFuzzSpec& vm : spec.vms) {
    if (vm.initial < spec.min_utilization ||
        vm.initial > spec.max_utilization || vm.latency_goal <= 0) {
      return false;
    }
  }
  return true;
}

fleet::HostConfig BuildHostConfig(const AdaptScenarioSpec& spec) {
  fleet::HostConfig config;
  config.num_cpus = spec.num_cpus;
  config.cores_per_socket = spec.cores_per_socket;
  config.slots_per_core = spec.slots_per_core;
  // The fuzz loop feeds the controller synthetic window views directly, so
  // no telemetry (and no engine time) is needed — only the planner runs.
  config.attach_telemetry = false;
  config.adaptive = true;
  config.adapt_policy = spec.policy;
  config.adapt_min_utilization = spec.min_utilization;
  config.adapt_max_utilization = spec.max_utilization;
  return config;
}

// The floor the controller promises: nearest-rank quantile over the last
// min(n, history) fed observations — recomputed independently from the raw
// demand trace, never from predictor state.
double ShadowFloor(const std::vector<double>& fed, int history, double q) {
  if (fed.empty()) {
    return 0;
  }
  const std::size_t n =
      std::min(fed.size(), static_cast<std::size_t>(history));
  std::vector<double> tail(fed.end() - static_cast<std::ptrdiff_t>(n),
                           fed.end());
  std::sort(tail.begin(), tail.end());
  int rank = static_cast<int>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp(rank, 1, static_cast<int>(n));
  return tail[static_cast<std::size_t>(rank - 1)];
}

}  // namespace

bool FeasibleAdaptSpec(const AdaptScenarioSpec& spec) {
  if (!AdaptShapeOk(spec)) {
    return false;
  }
  // Real admission dry-run: the host's sequential delta solves are the
  // system under test, so feasibility means "this host admits this VM set",
  // not an aggregate-utilization heuristic.
  fleet::Host host(BuildHostConfig(spec));
  for (const AdaptVmFuzzSpec& vm : spec.vms) {
    if (host.AdmitVm(vm.initial, vm.latency_goal) < 0) {
      return false;
    }
  }
  return true;
}

AdaptCheckOutcome RunAdaptScenario(const AdaptScenarioSpec& spec) {
  AdaptCheckOutcome outcome;
  if (!AdaptShapeOk(spec)) {
    outcome.violations.push_back("spec: malformed adapt scenario spec");
    return outcome;
  }

  fleet::Host host(BuildHostConfig(spec));
  adapt::AdaptiveController* controller = host.adaptive();
  std::vector<int> slots;
  for (std::size_t i = 0; i < spec.vms.size(); ++i) {
    const int slot = host.AdmitVm(spec.vms[i].initial, spec.vms[i].latency_goal);
    if (slot < 0) {
      // Correctly rejected at admission: nothing to drive. (A reproducer for
      // a since-fixed over-admission bug replays as clean this way.)
      return outcome;
    }
    slots.push_back(slot);
  }

  const PlannerConfig verify_config = host.planner_config();
  const adapt::PolicyConfig& policy = spec.policy;

  // Independent per-VM shadow of everything the properties need: the raw
  // data windows fed so far and the spacing since the last committed resize.
  struct Shadow {
    std::vector<double> fed;
    int data_since_commit = 0;
    bool committed_before = false;
  };
  std::vector<Shadow> shadows(spec.vms.size());

  struct PendingMeta {
    std::size_t vm = 0;
    double old_reservation = 0;
  };

  for (int w = 0; w < spec.windows; ++w) {
    const TimeNs now = static_cast<TimeNs>(w + 1) * spec.window_ns;
    std::vector<fleet::Host::ResizeRequest> pending;
    std::vector<PendingMeta> meta;
    for (std::size_t i = 0; i < spec.vms.size(); ++i) {
      const AdaptVmFuzzSpec& vm = spec.vms[i];
      const int slot = slots[i];
      const double demand =
          static_cast<std::size_t>(w) < vm.demand.size() ? vm.demand[w] : -1.0;
      const bool has_data = demand >= 0;
      Shadow& shadow = shadows[i];
      if (has_data) {
        shadow.fed.push_back(demand);
        ++shadow.data_since_commit;
      }
      const double old_reservation = controller->reservation(slot);
      const adapt::AdaptiveController::Decision decision =
          controller->ObserveWindow(slot, has_data, std::max(demand, 0.0),
                                    std::max(demand, 0.0));
      if (!has_data &&
          decision.action != adapt::AdaptiveController::Action::kHold) {
        outcome.violations.push_back(
            "nodata: w=" + std::to_string(w) + " vm " + std::to_string(i) +
            " resized on a window with no data");
        continue;
      }
      if (decision.action != adapt::AdaptiveController::Action::kHold) {
        pending.push_back(fleet::Host::ResizeRequest{slot, decision.target});
        meta.push_back(PendingMeta{i, old_reservation});
      }
    }
    if (pending.empty()) {
      continue;
    }
    const int installed = host.ResizeVms(pending, now);
    if (installed == 0) {
      // Backoff-suppressed or planner-rejected: previous table kept, the
      // controller cooled down — graceful degradation, not a violation.
      continue;
    }
    // (a) Every installed resize's table passes the TableVerifier.
    for (std::string& violation : VerifyPlan(host.plan(), verify_config)) {
      outcome.violations.push_back("verify: w=" + std::to_string(w) + " " +
                                   violation);
    }
    for (std::size_t j = 0; j < pending.size(); ++j) {
      const double next = pending[j].utilization;
      const double old = meta[j].old_reservation;
      Shadow& shadow = shadows[meta[j].vm];
      const std::string where =
          "w=" + std::to_string(w) + " vm " + std::to_string(meta[j].vm);
      outcome.resize_log.push_back("w=" + std::to_string(w) + " slot=" +
                                   std::to_string(pending[j].slot) + " " +
                                   FormatDouble(old) + "->" +
                                   FormatDouble(next));
      ++outcome.resizes;
      // (b) Hysteresis: deadbands around the live reservation, and at least
      // cooldown_windows + 1 data windows between commits per VM.
      if (shadow.committed_before &&
          shadow.data_since_commit < policy.cooldown_windows + 1) {
        outcome.violations.push_back(
            "cooldown: " + where + " committed after " +
            std::to_string(shadow.data_since_commit) + " data windows (< " +
            std::to_string(policy.cooldown_windows + 1) + ")");
      }
      if (next > old && next - old <= policy.grow_deadband - 1e-9) {
        outcome.violations.push_back("deadband: " + where + " grew " +
                                     FormatDouble(old) + "->" +
                                     FormatDouble(next) +
                                     " inside the grow deadband");
      }
      if (next < old) {
        if (old - next <= policy.shrink_deadband - 1e-9) {
          outcome.violations.push_back("deadband: " + where + " shrank " +
                                       FormatDouble(old) + "->" +
                                       FormatDouble(next) +
                                       " inside the shrink deadband");
        }
        // (c) Never below the demonstrated-demand floor (clamped: a floor
        // above max_utilization is capped by the tenant's own max).
        const double floor =
            std::min(ShadowFloor(shadow.fed, policy.predictor.history,
                                 policy.floor_quantile),
                     spec.max_utilization);
        if (next < floor - 1e-9) {
          outcome.violations.push_back(
              "floor: " + where + " shrank to " + FormatDouble(next) +
              " below the observed p" +
              std::to_string(static_cast<int>(policy.floor_quantile * 100)) +
              " demand " + FormatDouble(floor));
        }
      }
      if (next < spec.min_utilization - 1e-9 ||
          next > spec.max_utilization + 1e-9) {
        outcome.violations.push_back("clamp: " + where + " committed " +
                                     FormatDouble(next) + " outside [" +
                                     FormatDouble(spec.min_utilization) + ", " +
                                     FormatDouble(spec.max_utilization) + "]");
      }
      shadow.committed_before = true;
      shadow.data_since_commit = 0;
    }
  }
  return outcome;
}

std::string AdaptCategoryOf(const std::vector<std::string>& violations) {
  if (violations.empty()) {
    return "";
  }
  const std::string& first = violations.front();
  const std::size_t colon = first.find(':');
  if (colon == std::string::npos) {
    return first.substr(0, std::min<std::size_t>(16, first.size()));
  }
  return first.substr(0, colon);
}

namespace {

AdaptScenarioSpec DrawAdaptSpec(std::uint64_t seed, int attempt) {
  Rng rng(Mix(seed, static_cast<std::uint64_t>(attempt)));
  AdaptScenarioSpec spec;
  spec.seed = seed;
  spec.num_cpus = 1 << rng.UniformInt(1, 3);  // 2, 4, or 8.
  spec.cores_per_socket = spec.num_cpus <= 2 ? spec.num_cpus : spec.num_cpus / 2;
  spec.slots_per_core = static_cast<int>(rng.UniformInt(1, 2));
  spec.window_ns = 10 * kMillisecond;
  spec.windows = static_cast<int>(rng.UniformInt(8, 40));
  static constexpr double kQuantizeChoices[] = {1.0 / 64, 1.0 / 32, 1.0 / 16};
  spec.policy.quantize = kQuantizeChoices[rng.UniformInt(0, 2)];
  spec.policy.headroom = 1.0 + 0.1 * static_cast<double>(rng.UniformInt(0, 5));
  spec.policy.grow_deadband = 1.0 / 64;
  static constexpr double kShrinkChoices[] = {1.0 / 32, 1.0 / 16, 1.0 / 8};
  spec.policy.shrink_deadband = kShrinkChoices[rng.UniformInt(0, 2)];
  spec.policy.cooldown_windows = static_cast<int>(rng.UniformInt(1, 6));
  spec.min_utilization = 1.0 / 32;
  spec.max_utilization = 0.25 * static_cast<double>(rng.UniformInt(2, 4));
  static constexpr TimeNs kLatencyChoices[] = {10 * kMillisecond,
                                               20 * kMillisecond,
                                               50 * kMillisecond};
  const int max_vms =
      std::min(6, spec.num_cpus * spec.slots_per_core);
  const int num_vms = static_cast<int>(rng.UniformInt(1, max_vms));
  // Aggregate budget so the initial set admits and leaves growth headroom
  // (resize failures are still legal — kept-previous, not a violation).
  double budget = 0.6 * static_cast<double>(spec.num_cpus);
  for (int i = 0; i < num_vms; ++i) {
    AdaptVmFuzzSpec vm;
    vm.initial = spec.policy.quantize * static_cast<double>(rng.UniformInt(2, 8));
    vm.initial = std::clamp(vm.initial, spec.min_utilization,
                            std::min(spec.max_utilization, 0.5));
    if (budget - vm.initial < 0) {
      vm.initial = spec.min_utilization;
    }
    budget -= vm.initial;
    vm.latency_goal = kLatencyChoices[rng.UniformInt(0, 2)];
    // Bursty regime walk: a base level that occasionally jumps, per-window
    // jitter, saturation spikes, and explicit no-data (idle) windows.
    double base = 0.05 * static_cast<double>(rng.UniformInt(0, 10));
    vm.demand.reserve(static_cast<std::size_t>(spec.windows));
    for (int w = 0; w < spec.windows; ++w) {
      if (rng.UniformDouble() < 0.12) {
        base = 0.05 * static_cast<double>(rng.UniformInt(0, 10));
      }
      const double roll = rng.UniformDouble();
      double demand;
      if (roll < 0.15) {
        demand = -1.0;  // Idle window: no data.
      } else if (roll < 0.20) {
        demand = 0.9 + 0.1 * rng.UniformDouble();  // Saturation spike.
      } else {
        demand = std::clamp(base + 0.05 * (rng.UniformDouble() - 0.5), 0.0, 1.0);
      }
      vm.demand.push_back(demand);
    }
    spec.vms.push_back(std::move(vm));
  }
  return spec;
}

}  // namespace

AdaptScenarioSpec GenerateAdaptSpec(std::uint64_t seed) {
  for (int attempt = 0; attempt < 32; ++attempt) {
    AdaptScenarioSpec spec = DrawAdaptSpec(seed, attempt);
    if (FeasibleAdaptSpec(spec)) {
      return spec;
    }
  }
  // Trivially feasible fallback (should be unreachable in practice).
  AdaptScenarioSpec fallback;
  fallback.seed = seed;
  fallback.num_cpus = 2;
  fallback.cores_per_socket = 2;
  fallback.slots_per_core = 1;
  fallback.vms.push_back(AdaptVmFuzzSpec{});
  fallback.vms.back().demand.assign(
      static_cast<std::size_t>(fallback.windows), 0.25);
  return fallback;
}

namespace {

std::vector<AdaptScenarioSpec> AdaptShrinkCandidates(
    const AdaptScenarioSpec& spec) {
  std::vector<AdaptScenarioSpec> candidates;
  // Biggest reductions first: whole VMs, then the window trace, then
  // per-trace simplifications, then host size.
  if (spec.vms.size() > 1) {
    for (std::size_t i = 0; i < spec.vms.size(); ++i) {
      AdaptScenarioSpec candidate = spec;
      candidate.vms.erase(candidate.vms.begin() +
                          static_cast<std::ptrdiff_t>(i));
      candidates.push_back(std::move(candidate));
    }
  }
  if (spec.windows > 4) {
    for (const int windows : {spec.windows / 2, spec.windows - 1}) {
      AdaptScenarioSpec candidate = spec;
      candidate.windows = windows;
      for (AdaptVmFuzzSpec& vm : candidate.vms) {
        if (static_cast<int>(vm.demand.size()) > windows) {
          vm.demand.resize(static_cast<std::size_t>(windows));
        }
      }
      candidates.push_back(std::move(candidate));
    }
  }
  for (std::size_t i = 0; i < spec.vms.size(); ++i) {
    double sum = 0;
    int data = 0;
    for (const double d : spec.vms[i].demand) {
      if (d >= 0) {
        sum += d;
        ++data;
      }
    }
    const double mean = data > 0 ? sum / static_cast<double>(data) : 0.0;
    bool varied = false;
    bool has_gap = false;
    for (const double d : spec.vms[i].demand) {
      if (d >= 0 && std::abs(d - mean) > 1e-12) {
        varied = true;
      }
      if (d < 0) {
        has_gap = true;
      }
    }
    if (varied) {
      // Flatten the trace to its mean (keeps no-data markers in place).
      AdaptScenarioSpec candidate = spec;
      for (double& d : candidate.vms[i].demand) {
        if (d >= 0) {
          d = mean;
        }
      }
      candidates.push_back(std::move(candidate));
    }
    if (has_gap) {
      // Materialize the idle windows as mean demand.
      AdaptScenarioSpec candidate = spec;
      for (double& d : candidate.vms[i].demand) {
        if (d < 0) {
          d = mean;
        }
      }
      candidates.push_back(std::move(candidate));
    }
    {
      // Round the trace onto a coarse grid.
      AdaptScenarioSpec candidate = spec;
      bool changed = false;
      for (double& d : candidate.vms[i].demand) {
        if (d >= 0) {
          const double rounded = std::round(d * 64.0) / 64.0;
          if (std::abs(rounded - d) > 1e-12) {
            d = rounded;
            changed = true;
          }
        }
      }
      if (changed) {
        candidates.push_back(std::move(candidate));
      }
    }
  }
  if (spec.num_cpus > 2) {
    AdaptScenarioSpec candidate = spec;
    candidate.num_cpus = spec.num_cpus / 2;
    candidate.cores_per_socket =
        std::min(candidate.cores_per_socket, candidate.num_cpus);
    candidates.push_back(std::move(candidate));
  }
  return candidates;
}

}  // namespace

ShrinkResult<AdaptScenarioSpec> ShrinkAdaptSpec(const AdaptScenarioSpec& spec,
                                                const std::string& category) {
  if (category.empty()) {
    return {spec, 0};
  }
  return GreedyShrink(
      spec, AdaptShrinkCandidates, FeasibleAdaptSpec,
      [&category](const AdaptScenarioSpec& candidate) {
        return AdaptCategoryOf(RunAdaptScenario(candidate).violations) ==
               category;
      },
      /*max_runs=*/200);
}

}  // namespace tableau::check
