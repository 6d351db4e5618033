// Planner workloads: no simulation runs, so planner changes (core, rt,
// table) show undiluted.
//
//  - plan_full: Fig 3's hardest point — 176 single-vCPU VMs at U=0.25 and a
//    1 ms latency goal on a 44-core host, planned from scratch repeatedly.
//  - plan_churn: the Sec 7.1 incremental path — a seeded stream of
//    single-vCPU arrive / depart / resize deltas against a ~160-VM host,
//    each solved as a delta of the previous plan.
//
// Both run in episodes. An episode's set-up generates the inputs from the
// seed, constructs the planner and solves the plan the steps start from;
// its steps are timed Planner::Solve calls. Every episode of a run uses the
// same inputs, so every table must repeat byte for byte across episodes.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"

namespace perfbench {
namespace {

using tableau::PlanRequest;
using tableau::PlanResult;
using tableau::VcpuRequest;

constexpr int kCpus = 44;
constexpr tableau::TimeNs kLatencyGoal = tableau::kMillisecond;
constexpr double kUtilization = 0.25;
constexpr int kFullVms = 176;
constexpr int kFullStepsPerEpisode = 16;
// The churn host hovers around kChurnBaseVms (within +-kChurnSwing) and
// keeps its requested utilization at or below kChurnMaxCommitted cores.
constexpr int kChurnBaseVms = 160;
constexpr int kChurnSwing = 8;
constexpr double kChurnMaxCommitted = 42.0;
constexpr int kChurnStepsPerEpisode = 96;
constexpr int kChurnMaxResized = 8;
constexpr double kSmallerSize = 0.125;
constexpr double kLargerSize = 0.375;

tableau::PlannerConfig PlanConfig(tableau::obs::MetricsRegistry* registry) {
  tableau::PlannerConfig config;
  config.num_cpus = kCpus;
  config.metrics = registry;
  return config;
}

std::uint64_t TableHash(const PlanResult& plan) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const std::uint8_t byte : plan.table.Serialize()) {
    hash = (hash ^ byte) * 1099511628211ull;
  }
  return hash;
}

// `count` VMs with ids 0..count-1 in a seeded order.
std::vector<VcpuRequest> ShuffledRequests(int count, tableau::Rng& rng) {
  std::vector<VcpuRequest> requests;
  for (int id = 0; id < count; ++id) {
    requests.push_back(VcpuRequest{id, kUtilization, kLatencyGoal});
  }
  for (int i = count - 1; i > 0; --i) {
    std::swap(requests[static_cast<std::size_t>(i)],
              requests[static_cast<std::size_t>(rng.UniformInt(0, i))]);
  }
  return requests;
}

struct Delta {
  std::vector<VcpuRequest> added;
  std::vector<tableau::VcpuId> departed;
};

// Seeded single-vCPU churn against `base`: arrivals and departures at
// U=0.25, and resizes (depart + re-add the same id at another size). A
// resize moves a U=0.25 VM to 0.125 or 0.375 while fewer than
// kChurnMaxResized VMs are off 0.25, and otherwise moves one of those back,
// so the host's size mix stays stationary over the stream.
std::vector<Delta> ChurnStream(const std::vector<VcpuRequest>& base, int steps,
                               tableau::Rng& rng) {
  std::vector<VcpuRequest> live = base;
  double committed = 0;
  tableau::VcpuId next_id = 0;
  for (const VcpuRequest& r : base) {
    committed += r.utilization;
    next_id = std::max(next_id, r.vcpu + 1);
  }
  std::vector<Delta> stream;
  for (int step = 0; step < steps; ++step) {
    Delta delta;
    std::int64_t op = rng.UniformInt(0, 2);
    const int size = static_cast<int>(live.size());
    if (op == 0 && (size >= kChurnBaseVms + kChurnSwing ||
                    committed + kUtilization > kChurnMaxCommitted)) {
      op = 1;
    }
    if (op == 1 && size <= kChurnBaseVms - kChurnSwing) {
      op = 2;
    }
    if (op == 0) {
      delta.added.push_back(VcpuRequest{next_id++, kUtilization, kLatencyGoal});
      committed += kUtilization;
      live.push_back(delta.added.back());
    } else {
      std::vector<std::size_t> resized;
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].utilization != kUtilization) {
          resized.push_back(i);
        }
      }
      const bool restore = op == 2 && static_cast<int>(resized.size()) >= kChurnMaxResized;
      const std::size_t victim =
          restore ? resized[static_cast<std::size_t>(
                        rng.UniformInt(0, static_cast<std::int64_t>(resized.size()) - 1))]
                  : static_cast<std::size_t>(rng.UniformInt(0, size - 1));
      const VcpuRequest old = live[victim];
      delta.departed.push_back(old.vcpu);
      committed -= old.utilization;
      if (op == 1) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        double level = kUtilization;
        if (old.utilization == kUtilization) {
          level = rng.UniformInt(0, 1) == 0 ? kSmallerSize : kLargerSize;
        }
        if (committed + level > kChurnMaxCommitted) {
          level = kSmallerSize;
        }
        live[victim].utilization = level;
        committed += level;
        delta.added.push_back(live[victim]);
      }
    }
    stream.push_back(std::move(delta));
  }
  return stream;
}

// Planner-layer metrics read from the planner's own registry: phase time
// per solve (planner.*_ns histograms), admission-ladder split, and plan
// counts.
void SetPlannerMetrics(const tableau::obs::MetricsSnapshot& snapshot, Report& report) {
  const auto hist = [&](const char* name) {
    const auto it = snapshot.values.find(name);
    return it == snapshot.values.end() ? tableau::obs::HistogramValue{} : it->second.hist;
  };
  const auto counter = [&](const char* name) {
    const auto it = snapshot.values.find(name);
    return it == snapshot.values.end() ? 0.0 : static_cast<double>(it->second.counter);
  };
  const double solves = std::max<double>(1, static_cast<double>(hist("planner.plan_total_ns").count));
  const std::pair<const char*, const char*> phases[] = {
      {"core.phase.partition_ms", "planner.partition_ns"},
      {"core.phase.edf_core_sim_ms", "planner.edf_core_sim_ns"},
      {"core.phase.cd_split_ms", "planner.cd_split_ns"},
      {"core.phase.cluster_ms", "planner.cluster_ns"},
      {"core.phase.coalesce_ms", "planner.coalesce_ns"},
      {"core.phase.total_ms", "planner.plan_total_ns"},
  };
  for (const auto& [metric, source] : phases) {
    report.Set(metric, static_cast<double>(hist(source).sum) / 1e6 / solves, "ms");
  }
  const double analytic = counter("planner.admission.utilization") +
                          counter("planner.admission.density") +
                          counter("planner.admission.qpa");
  const double decisions = analytic + counter("planner.admission.simulation");
  report.Set("core.admission.analytic_fraction", decisions == 0 ? 0 : analytic / decisions,
             "fraction");
  report.Set("core.incremental_plans", counter("planner.incremental_plans"), "count");
}

// One timed Solve, spanned as core.solve.
PlanResult TimedSolve(const tableau::Planner& planner, const PlanRequest& request,
                      Tracer& tracer, double* ms) {
  const std::int64_t start = NowNs();
  PlanResult result;
  {
    Tracer::Scope span(tracer, "core.solve");
    result = planner.Solve(request);
  }
  if (ms != nullptr) {
    *ms = MsSince(start);
  }
  return result;
}

enum class PlanShape { kFull, kChurn };

void RunPlanWorkload(PlanShape shape, const RunOptions& options, Tracer& tracer,
                     Report& report) {
  tableau::obs::MetricsRegistry registry;
  std::int64_t deadline = NowNs() + static_cast<std::int64_t>(options.seconds * 1e9);
  std::vector<double> setup_s;
  StepSamples steps;
  TableProbes probes;
  // Hash of every distinct table the run produced, by position: 0 is the
  // set-up plan, k + 1 step k's (plan_full repeats table 0 at every step).
  // A table is verified the first time its position is reached; later
  // episodes, having the same inputs, must reproduce it byte for byte.
  // Verification time extends the deadline, so the number of measured
  // steps does not depend on how long the checks take.
  std::vector<std::uint64_t> reference_hashes;
  std::vector<double> dirty_fraction;
  std::int64_t solves = 0;
  std::int64_t solve_failures = 0;
  double peak_rss_mb = 0;

  const int steps_per_episode =
      shape == PlanShape::kFull ? kFullStepsPerEpisode : kChurnStepsPerEpisode;
  const auto check_table = [&](const PlanResult& plan, const tableau::PlannerConfig& config,
                               std::size_t position, const std::string& where) {
    const std::uint64_t hash = TableHash(plan);
    if (position >= reference_hashes.size()) {
      const std::int64_t start = NowNs();
      VerifyPlanInto(plan, config, where, tracer, report);
      deadline += NowNs() - start;
      reference_hashes.push_back(hash);
    } else {
      report.Check(hash == reference_hashes[position],
                   where + ": table differs from the first run of the same inputs");
    }
  };
  for (int episode = 0; NowNs() < deadline || episode < 2; ++episode) {
    const bool traced = options.trace && episode % 2 == 0;
    tracer.set_enabled(traced);
    Tracer::Scope episode_span(tracer, "bench.episode");

    // --- Set-up: inputs from the seed, planner, the starting plan ---
    const std::int64_t setup_start = NowNs();
    tableau::Rng rng(options.seed);
    std::vector<VcpuRequest> requests;
    std::vector<Delta> stream;
    std::unique_ptr<tableau::Planner> planner;
    PlanResult current;
    {
      Tracer::Scope span(tracer, "bench.setup");
      requests = ShuffledRequests(shape == PlanShape::kFull ? kFullVms : kChurnBaseVms, rng);
      if (shape == PlanShape::kChurn) {
        stream = ChurnStream(requests, steps_per_episode, rng);
      }
      planner = std::make_unique<tableau::Planner>(PlanConfig(&registry));
      current = TimedSolve(*planner, PlanRequest::Full(requests), tracer, nullptr);
    }
    setup_s.push_back(MsSince(setup_start) / 1e3);
    ++solves;
    if (!report.Check(current.success, "set-up solve failed: " + current.error)) {
      ++solve_failures;
      continue;
    }
    check_table(current, planner->config(), 0, "episode " + std::to_string(episode) + " set-up");

    // --- Steps: timed solves, each checked and compared with episode 0 ---
    for (int step = 0; step < steps_per_episode && NowNs() < deadline; ++step) {
      double ms = 0;
      PlanResult next =
          shape == PlanShape::kFull
              ? TimedSolve(*planner, PlanRequest::Full(requests), tracer, &ms)
              : TimedSolve(*planner,
                           PlanRequest::Delta(current, stream[static_cast<std::size_t>(step)].added,
                                              stream[static_cast<std::size_t>(step)].departed),
                           tracer, &ms);
      ++solves;
      steps.Add(ms, traced);
      const std::string where = "episode " + std::to_string(episode) + " step " +
                                std::to_string(step);
      if (!report.Check(next.success, where + ": solve failed: " + next.error)) {
        ++solve_failures;
        break;
      }
      check_table(next, planner->config(),
                  shape == PlanShape::kFull ? 0 : static_cast<std::size_t>(step) + 1, where);
      if (shape == PlanShape::kChurn) {
        dirty_fraction.push_back(static_cast<double>(next.dirty_cores.size()) / kCpus);
      }
      if (traced) {
        probes.ProbeTable(next, options.seed + static_cast<std::uint64_t>(step), tracer,
                          report);
      }
      current = std::move(next);
    }
    if (episode == 0) {
      peak_rss_mb = PeakRssMb();
    }
  }
  tracer.set_enabled(false);

  SetCommonMetrics(setup_s, steps, peak_rss_mb, tracer, report);
  SetPlannerMetrics(registry.Snapshot(), report);
  probes.SetMetrics(report);
  report.Set("core.solves", static_cast<double>(solves), "count");
  report.Set("core.solve_failures", static_cast<double>(solve_failures), "count");
  report.Set("core.delta_dirty_cores.mean", Mean(dirty_fraction), "fraction");
  // The step metrics under their planner-specific names.
  const char* alias = shape == PlanShape::kFull ? "plan_full_ms" : "plan_delta_ms";
  report.Set(std::string(alias) + ".p50", report.metrics["step_ms.p50"].value, "ms");
  report.Set(std::string(alias) + ".p90", report.metrics["step_ms.p90"].value, "ms");
}

}  // namespace

void RunPlanFull(const RunOptions& options, Tracer& tracer, Report& report) {
  RunPlanWorkload(PlanShape::kFull, options, tracer, report);
}

void RunPlanChurn(const RunOptions& options, Tracer& tracer, Report& report) {
  RunPlanWorkload(PlanShape::kChurn, options, tracer, report);
}

}  // namespace perfbench
