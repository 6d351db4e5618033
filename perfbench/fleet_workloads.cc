// Fleet workloads: whole-fleet simulation through fleet::Cluster.
//
//  - fleet_steady: bench_fleet's fleet, serial — 64 hosts x 32 pCPUs x 4
//    slots, 1,024 VMs each with an open-loop ~200 req/s stream, plus one
//    seeded VM whose 4x surge forces a live migration. The engine,
//    dispatcher, guest streams and telemetry do nearly all the work; the
//    planner runs in set-up (1,024 admissions at t=0) and for the migration.
//  - fleet_parallel: the same fleet sharded and run on worker threads. Its
//    fingerprint, merged metrics and SLO summary must equal the serial run's.
//  - fleet_adaptive: bench_adaptive's elastic diurnal arm — 4 hosts x 8
//    pCPUs, 80 VMs at U=0.5 in two arrival waves, closed-loop resizing every
//    210 ms through the planner's delta path.
//
// A run is a sequence of episodes. Set-up is the Cluster constructor plus
// Start(); each step is one control period of RunUntil; after the horizon
// the merged metrics, time series and Slo() are exported and the episode is
// checked. Every episode of a run has the same inputs, so every simulated
// number must repeat exactly.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "src/common/rng.h"
#include "src/fleet/cluster.h"
#include "src/harness/fleet_scenario.h"

namespace perfbench {
namespace {

using tableau::TimeNs;
using tableau::kMicrosecond;
using tableau::kMillisecond;
using tableau::kSecond;
namespace fleet = tableau::fleet;
namespace obs = tableau::obs;

enum class FleetShape { kSteady, kParallel, kAdaptive };

struct FleetSetup {
  fleet::ClusterConfig config;
  TimeNs horizon = 0;
  // Requests posted this many control periods before the horizon must have
  // completed by it (per-VM completion is FIFO, so comparing counts
  // suffices).
  int grace_periods = 0;
};

// The seeded inputs: every VM's request rate is jittered by up to +-2%.
// The amplitude is small so that different seeds give different request
// grids without moving the fleet's total work by more than run-to-run noise.
void JitterRates(fleet::ClusterConfig& config, tableau::Rng& rng) {
  for (fleet::VmReservation& vm : config.vms) {
    vm.requests_per_sec *= rng.UniformDouble(0.98, 1.02);
  }
}

FleetSetup SteadySetup(std::uint64_t seed, bool parallel, int threads) {
  tableau::FleetScenarioConfig scenario;
  scenario.num_hosts = 64;
  scenario.cpus_per_host = 32;
  scenario.cores_per_socket = 8;
  scenario.slots_per_core = 4;
  scenario.num_vms = 1024;
  scenario.utilization = 0.25;
  scenario.requests_per_sec = 200;
  scenario.service_ns = 500 * kMicrosecond;
  scenario.latency_goal = 20 * kMillisecond;
  scenario.min_requests_before_migration = 20;
  scenario.sharded = parallel;
  scenario.parallel = parallel;
  scenario.num_threads = parallel ? threads : 0;
  FleetSetup setup;
  setup.config = tableau::BuildFleetConfig(scenario);
  tableau::Rng rng(seed);
  JitterRates(setup.config, rng);
  // Scripted overload on one seeded VM: 4x service demand (0.4 of a core
  // against a quarter-core reservation) over [100, 300) ms trips the
  // burn-rate detector; the bounded surge lets the backlog drain before the
  // horizon.
  fleet::VmReservation& surge =
      setup.config.vms[static_cast<std::size_t>(rng.UniformInt(0, scenario.num_vms - 1))];
  surge.surge_at = 100 * kMillisecond;
  surge.surge_until = 300 * kMillisecond;
  surge.surge_factor = 4.0;
  setup.horizon = kSecond;
  setup.grace_periods = 10;  // 100 ms = 5 latency goals.
  return setup;
}

constexpr int kWave1Vms = 56;

FleetSetup AdaptiveSetup(std::uint64_t seed) {
  tableau::FleetScenarioConfig scenario;
  scenario.num_hosts = 4;
  scenario.cpus_per_host = 8;
  scenario.cores_per_socket = 4;
  scenario.slots_per_core = 2;
  scenario.control_period = 210 * kMillisecond;  // >= two table rounds.
  scenario.admission_latency = 210 * kMillisecond;
  scenario.migrate_burn_threshold = 1e9;  // Isolate the resize loop.
  scenario.utilization = 0.5;
  scenario.latency_goal = 40 * kMillisecond;
  scenario.requests_per_sec = 400;
  scenario.num_vms = 80;
  scenario.service_ns = 1000 * kMicrosecond;
  scenario.shape = fleet::DemandShape::kDiurnal;
  scenario.shape_period = 8000 * kMillisecond;
  scenario.shape_min = 0.2;
  scenario.shape_max = 0.8;
  scenario.stagger_phases = true;
  scenario.adaptive = true;
  scenario.adapt_policy.cooldown_windows = 2;
  FleetSetup setup;
  setup.config = tableau::BuildFleetConfig(scenario);
  tableau::Rng rng(seed);
  JitterRates(setup.config, rng);
  setup.horizon = 10 * kSecond;
  // Wave 2 arrives at 30% of the run, after the controller has shrunk wave 1.
  for (std::size_t vm = kWave1Vms; vm < setup.config.vms.size(); ++vm) {
    setup.config.vms[vm].arrival = (setup.horizon / 10) * 3;
  }
  setup.grace_periods = 2;  // 420 ms = 10.5 latency goals.
  return setup;
}

std::int64_t Counter(const obs::MetricsSnapshot& snapshot, const char* name) {
  const auto it = snapshot.values.find(name);
  return it == snapshot.values.end() ? 0 : it->second.counter;
}

// Planner pipeline runs inside the fleet: full plans plus delta plans (a
// delta that falls back to a full plan counts in both).
std::int64_t Solves(const obs::MetricsSnapshot& snapshot) {
  return Counter(snapshot, "planner.plans") + Counter(snapshot, "planner.incremental_plans");
}

// What one episode produced. The simulated fields must repeat exactly
// across episodes of one seed.
struct Episode {
  double construct_ms = 0;
  double start_ms = 0;
  double export_ms = 0;
  std::vector<double> tick_ms;
  std::vector<double> resize_tick_ms;
  // Simulated outcome.
  std::uint64_t fingerprint = 0;
  obs::MetricsSnapshot metrics;
  fleet::Cluster::SloSummary slo;
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::uint64_t control_ticks = 0;
  std::uint64_t resizes = 0;
  std::size_t migrations = 0;
  double committed_fraction = 0;
  std::uint64_t posted = 0;
  std::uint64_t completed = 0;
  std::uint64_t grows = 0;
  std::uint64_t shrinks = 0;
  std::uint64_t commits = 0;
  std::uint64_t rejects = 0;
  double snapshot_bytes = 0;  // Traced episodes only.

  double TickTotalMs() const {
    double total = 0;
    for (const double ms : tick_ms) {
      total += ms;
    }
    return total;
  }
};

Episode RunEpisode(const FleetSetup& setup, std::uint64_t seed, bool traced, Tracer& tracer,
                   TableProbes& probes, Report& report) {
  Episode episode;
  Tracer::Scope episode_span(tracer, "bench.episode");
  std::unique_ptr<fleet::Cluster> cluster;
  std::int64_t start = NowNs();
  {
    Tracer::Scope span(tracer, "fleet.construct");
    cluster = std::make_unique<fleet::Cluster>(setup.config);
  }
  episode.construct_ms = MsSince(start);
  start = NowNs();
  {
    Tracer::Scope span(tracer, "fleet.start");
    cluster->Start();
  }
  episode.start_ms = MsSince(start);

  const TimeNs period = setup.config.control_period;
  const TimeNs cutoff = setup.horizon - setup.grace_periods * period;
  std::vector<std::uint64_t> posted_at_cutoff(setup.config.vms.size(), 0);
  for (TimeNs t = period; t <= setup.horizon; t += period) {
    const std::uint64_t resizes_before = cluster->resizes();
    start = NowNs();
    {
      Tracer::Scope span(tracer, "fleet.run_until");
      cluster->RunUntil(t);
    }
    const double ms = MsSince(start);
    episode.tick_ms.push_back(ms);
    if (cluster->resizes() != resizes_before) {
      episode.resize_tick_ms.push_back(ms);
    }
    if (t == cutoff) {
      for (std::size_t vm = 0; vm < posted_at_cutoff.size(); ++vm) {
        posted_at_cutoff[vm] = cluster->stream(static_cast<int>(vm)).posted();
      }
    }
  }

  obs::TimeSeriesSnapshot series;
  start = NowNs();
  {
    Tracer::Scope span(tracer, "obs.export");
    {
      Tracer::Scope inner(tracer, "obs.merged_metrics");
      episode.metrics = cluster->MergedMetrics();
    }
    {
      Tracer::Scope inner(tracer, "obs.merged_time_series");
      series = cluster->MergedTimeSeries();
    }
    {
      Tracer::Scope inner(tracer, "fleet.slo");
      episode.slo = cluster->Slo();
    }
  }
  episode.export_ms = MsSince(start);
  {
    Tracer::Scope span(tracer, "fleet.fingerprint");
    episode.fingerprint = cluster->Fingerprint();
  }
  episode.events = cluster->sim().events_executed();
  episode.epochs = cluster->sim().epochs();
  episode.control_ticks = cluster->control_ticks();
  episode.resizes = cluster->resizes();
  episode.migrations = cluster->migrations().size();
  episode.committed_fraction = cluster->AvgCommittedFraction();
  if (traced) {
    episode.snapshot_bytes = static_cast<double>(episode.metrics.ToJson().size() +
                                                 series.ToJson().size());
  }

  // --- Checks: every host's final table (migration destinations
  // included), request completion, and planner failures ---
  for (int h = 0; h < cluster->num_hosts(); ++h) {
    fleet::Host& host = cluster->host(h);
    if (host.adaptive() != nullptr) {
      const auto& counters = host.adaptive()->counters();
      episode.grows += counters.grows;
      episode.shrinks += counters.shrinks;
      episode.commits += counters.commits;
      episode.rejects += counters.rejects;
    }
    if (!host.plan().success) {
      continue;  // No VM on this host.
    }
    VerifyPlanInto(host.plan(), host.planner_config(), "host " + std::to_string(h), tracer,
                   report);
    if (traced) {
      probes.ProbeTable(host.plan(), seed + static_cast<std::uint64_t>(h), tracer, report);
    }
  }
  std::uint64_t incomplete = 0;
  for (std::size_t vm = 0; vm < posted_at_cutoff.size(); ++vm) {
    const fleet::VmStream& stream = cluster->stream(static_cast<int>(vm));
    episode.posted += stream.posted();
    episode.completed += stream.completed();
    if (stream.completed() < posted_at_cutoff[vm]) {
      incomplete += posted_at_cutoff[vm] - stream.completed();
    }
  }
  report.CheckMany(static_cast<std::int64_t>(episode.posted),
                   static_cast<std::int64_t>(incomplete),
                   "requests posted before the grace cutoff never completed");
  report.CheckMany(Solves(episode.metrics), Counter(episode.metrics, "replan.failures"),
                   "planner solves failed");
  {
    Tracer::Scope span(tracer, "fleet.destroy");
    cluster.reset();
  }
  return episode;
}

// The simulated outcome of `episode` must equal `reference`'s exactly.
void CheckSameOutcome(const Episode& episode, const Episode& reference,
                      const std::string& what, Report& report) {
  report.Check(episode.fingerprint == reference.fingerprint, what + ": fingerprint differs");
  report.Check(episode.metrics == reference.metrics, what + ": merged metrics differ");
  report.Check(episode.slo.requests == reference.slo.requests &&
                   episode.slo.misses == reference.slo.misses &&
                   episode.slo.vms_admitted == reference.slo.vms_admitted &&
                   episode.slo.vms_rejected == reference.slo.vms_rejected,
               what + ": SLO summary differs");
  report.Check(episode.resizes == reference.resizes &&
                   episode.migrations == reference.migrations &&
                   episode.committed_fraction == reference.committed_fraction,
               what + ": control-plane outcome differs");
}

void SetFleetMetrics(const std::vector<Episode>& episodes, TimeNs horizon,
                     double cold_construct_ms, Report& report) {
  std::vector<double> construct_ms;
  std::vector<double> start_ms;
  std::vector<double> export_ms;
  std::vector<double> sim_rate;
  std::vector<double> ticks;
  std::vector<double> resize_ticks;
  double tick_ns = 0;
  double events = 0;
  double epochs = 0;
  double snapshot_bytes = 0;  // Measured in traced episodes only.
  for (const Episode& e : episodes) {
    construct_ms.push_back(e.construct_ms);
    start_ms.push_back(e.start_ms);
    export_ms.push_back(e.export_ms);
    // Simulated seconds per host second, from Start's return until the
    // exports are in hand.
    sim_rate.push_back(static_cast<double>(horizon) / 1e6 / (e.TickTotalMs() + e.export_ms));
    ticks.insert(ticks.end(), e.tick_ms.begin(), e.tick_ms.end());
    resize_ticks.insert(resize_ticks.end(), e.resize_tick_ms.begin(), e.resize_tick_ms.end());
    tick_ns += e.TickTotalMs() * 1e6;
    events += static_cast<double>(e.events);
    epochs += static_cast<double>(e.epochs);
    if (e.snapshot_bytes > 0) {
      snapshot_bytes = e.snapshot_bytes;
    }
  }
  report.Set("obs.snapshot_bytes", snapshot_bytes, "bytes");
  report.Set("sim_rate", Median(sim_rate), "sim_s/s");
  report.Set("fleet.construct_ms", Median(construct_ms), "ms");
  report.Set("fleet.start_ms", Median(start_ms), "ms");
  report.Set("fleet.cold_construct_ms", cold_construct_ms, "ms");
  report.Set("fleet.tick_ms.p50", Quantile(ticks, 0.5), "ms");
  report.Set("fleet.tick_ms.p90", Quantile(ticks, 0.9), "ms");
  report.Set("fleet.tick_ms.max", Quantile(ticks, 1.0), "ms");
  report.Set("obs.export_ms", Median(export_ms), "ms");
  report.Set("sim.host_ns_per_event", events == 0 ? 0 : tick_ns / events, "ns");
  report.Set("sim.host_us_per_epoch", epochs == 0 ? 0 : tick_ns / 1e3 / epochs, "us");
  report.Set("adapt.resize_tick_ms.p50", Quantile(resize_ticks, 0.5), "ms");

  // Simulated numbers: identical in every episode (checked), so the first
  // episode stands for all.
  const Episode& e = episodes.front();
  const auto dispatch = e.metrics.values.find("machine.dispatch_latency_ns");
  const double dispatch_p99_us =
      dispatch == e.metrics.values.end()
          ? 0
          : static_cast<double>(dispatch->second.hist.Percentile(0.99)) / 1e3;
  report.Set("slo_attainment", e.slo.attainment, "fraction");
  report.Set("worst_vm_attainment", e.slo.worst_vm_attainment, "fraction");
  report.Set("dispatch_latency_p99_us", dispatch_p99_us, "us");
  report.Set("vms_admitted", e.slo.vms_admitted, "count");
  report.Set("committed_fraction", e.committed_fraction, "fraction");
  report.Set("fleet.control_ticks", static_cast<double>(e.control_ticks), "count");
  report.Set("fleet.migrations", static_cast<double>(e.migrations), "count");
  report.Set("sim.events", static_cast<double>(e.events), "count");
  report.Set("sim.epochs", static_cast<double>(e.epochs), "count");
  for (const char* name : {"machine.schedule_invocations", "machine.context_switches",
                           "tableau.table_switches"}) {
    report.Set(name, static_cast<double>(Counter(e.metrics, name)), "count");
  }
  report.Set("machine.overhead_ns", static_cast<double>(Counter(e.metrics, "machine.overhead_ns")),
             "ns");
  report.Set("streams.requests_posted", static_cast<double>(e.posted), "count");
  report.Set("streams.requests_completed", static_cast<double>(e.completed), "count");
  report.Set("adapt.grows", static_cast<double>(e.grows), "count");
  report.Set("adapt.shrinks", static_cast<double>(e.shrinks), "count");
  report.Set("adapt.commits", static_cast<double>(e.commits), "count");
  report.Set("adapt.rejects", static_cast<double>(e.rejects), "count");
  const double decided = static_cast<double>(e.commits + e.rejects);
  report.Set("adapt.commit_ratio", decided == 0 ? 0 : static_cast<double>(e.commits) / decided,
             "fraction");
  report.Set("core.solves", static_cast<double>(Solves(e.metrics)), "count");
  report.Set("core.solve_failures", static_cast<double>(Counter(e.metrics, "replan.failures")),
             "count");
  report.Set("core.incremental_plans",
             static_cast<double>(Counter(e.metrics, "planner.incremental_plans")), "count");
  const double analytic = static_cast<double>(Counter(e.metrics, "planner.admission.utilization") +
                                              Counter(e.metrics, "planner.admission.density") +
                                              Counter(e.metrics, "planner.admission.qpa"));
  const double decisions =
      analytic + static_cast<double>(Counter(e.metrics, "planner.admission.simulation"));
  report.Set("core.admission.analytic_fraction", decisions == 0 ? 0 : analytic / decisions,
             "fraction");
}

void RunFleetWorkload(FleetShape shape, const RunOptions& options, Tracer& tracer,
                      Report& report) {
  const FleetSetup setup = shape == FleetShape::kAdaptive
                               ? AdaptiveSetup(options.seed)
                               : SteadySetup(options.seed, shape == FleetShape::kParallel,
                                             options.worker_threads);
  TableProbes probes;
  double cold_construct_ms = 0;
  // fleet_parallel is checked against one untimed serial episode of the
  // same inputs (the fleet_steady configuration).
  std::unique_ptr<Episode> serial_reference;
  if (shape == FleetShape::kParallel) {
    serial_reference = std::make_unique<Episode>(RunEpisode(
        SteadySetup(options.seed, /*parallel=*/false, 0), options.seed, false, tracer, probes,
        report));
    cold_construct_ms = serial_reference->construct_ms;
  }

  const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(options.seconds * 1e9);
  std::vector<Episode> episodes;
  std::vector<double> setup_s;
  StepSamples steps;
  double peak_rss_mb = 0;
  for (int index = 0; NowNs() < deadline || index < 2; ++index) {
    const bool traced = options.trace && index % 2 == 0;
    tracer.set_enabled(traced);
    episodes.push_back(RunEpisode(setup, options.seed, traced, tracer, probes, report));
    tracer.set_enabled(false);
    const Episode& e = episodes.back();
    if (index == 0) {
      peak_rss_mb = PeakRssMb();
      if (cold_construct_ms == 0) {
        cold_construct_ms = e.construct_ms;
      }
    }
    setup_s.push_back((e.construct_ms + e.start_ms) / 1e3);
    for (const double ms : e.tick_ms) {
      steps.Add(ms, traced);
    }
    const std::string what = "episode " + std::to_string(index);
    CheckSameOutcome(e, episodes.front(), what + " vs episode 0 (same seed)", report);
    if (index > 0) {
      report.Check(e.events == episodes.front().events && e.epochs == episodes.front().epochs,
                   what + ": engine work differs from episode 0");
    }
    if (serial_reference != nullptr) {
      CheckSameOutcome(e, *serial_reference, what + " vs serial execution", report);
    }
    report.Check(shape == FleetShape::kAdaptive || e.migrations > 0,
                 what + ": the scripted surge caused no migration");
    // Episode 0's snapshot stands for all; drop the copies.
    if (index > 0) {
      episodes.back().metrics = obs::MetricsSnapshot{};
    }
  }

  SetCommonMetrics(setup_s, steps, peak_rss_mb, tracer, report);
  SetFleetMetrics(episodes, setup.horizon, cold_construct_ms, report);
  probes.SetMetrics(report);
}

}  // namespace

void RunFleetSteady(const RunOptions& options, Tracer& tracer, Report& report) {
  RunFleetWorkload(FleetShape::kSteady, options, tracer, report);
}

void RunFleetParallel(const RunOptions& options, Tracer& tracer, Report& report) {
  RunFleetWorkload(FleetShape::kParallel, options, tracer, report);
}

void RunFleetAdaptive(const RunOptions& options, Tracer& tracer, Report& report) {
  RunFleetWorkload(FleetShape::kAdaptive, options, tracer, report);
}

}  // namespace perfbench
