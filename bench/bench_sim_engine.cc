// Event-engine microbenchmark: the timer-wheel engine (src/sim) vs a replica
// of the original binary-heap engine (std::priority_queue over heap-allocated
// std::function closures, tombstone-set cancellation), driven by the same
// logical workload — a mix of self-rearming timers, strictly periodic ticks,
// and one-shot schedule/cancel churn at the delay scales the hypervisor
// produces. Also times the parallel measurement harness (RunSimulations)
// against a serial sweep of the same scenario batch.
//
// Writes BENCH_sim_engine.json with events/sec for both engines, the
// speedup, and the harness wall-clock for both modes.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/simulation.h"

using namespace tableau;
using namespace tableau::bench;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Replica of the pre-wheel engine, kept verbatim in spirit: one binary heap
// of {time, id, std::function}, lazy cancellation through an unordered set.
// Every schedule allocates a closure; every cancel grows the tombstone set
// until the event's time comes up.
class LegacySimulation {
 public:
  TimeNs Now() const { return now_; }

  EventId ScheduleAt(TimeNs at, std::function<void()> fn) {
    const EventId id = next_id_++;
    queue_.push(Event{at, id, std::move(fn)});
    return id;
  }
  EventId ScheduleAfter(TimeNs delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }
  void Cancel(EventId id) {
    if (id != kInvalidEvent) {
      cancelled_.insert(id);
    }
  }
  void RunUntil(TimeNs until) {
    while (!queue_.empty() && queue_.top().time <= until) {
      Event event = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      if (cancelled_.erase(event.id) > 0) {
        continue;
      }
      now_ = event.time;
      ++events_executed_;
      event.fn();
    }
    now_ = until;
  }
  std::uint64_t events_executed() const { return events_executed_; }

 private:
  struct Event {
    TimeNs time;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };
  TimeNs now_ = 0;
  EventId next_id_ = 1;
  std::uint64_t events_executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<EventId> cancelled_;
};

constexpr int kActors = 64;     // Self-rearming timers (vCPU-event analogue).
constexpr int kPeriodics = 16;  // Strictly periodic ticks (accounting analogue).

// wheel_events_per_sec measured on this host immediately before the
// hot-loop sweep (batched dispatch, SoA tables, zero-alloc steady state)
// landed; the JSON reports before/after so the perf trajectory is tracked
// per-PR.
constexpr double kPrePrWheelEventsPerSec = 17984714.0;

struct Churn {
  std::uint64_t lcg = 42;
  std::uint64_t fired = 0;

  std::uint64_t Next() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 16;
  }
  // Delay mix mirroring the simulator: mostly slice-scale, occasionally
  // accounting-scale, rarely beyond the level-0 rotation.
  TimeNs Delay() {
    const std::uint64_t pick = Next() % 16;
    if (pick < 12) return 1 + static_cast<TimeNs>(Next() % 100000);      // <= 100 us
    if (pick < 15) return 1 + static_cast<TimeNs>(Next() % 3000000);     // <= 3 ms
    return 1 + static_cast<TimeNs>(Next() % 50000000);                   // <= 50 ms
  }
};

struct EngineResult {
  std::uint64_t events;
  double seconds;
};

EngineResult RunLegacy(TimeNs horizon) {
  LegacySimulation sim;
  Churn churn;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::function<void()>> actors(kActors);
  for (int i = 0; i < kActors; ++i) {
    actors[static_cast<std::size_t>(i)] = [&sim, &churn, &actors, i] {
      ++churn.fired;
      sim.ScheduleAfter(churn.Delay(), actors[static_cast<std::size_t>(i)]);
      const EventId one =
          sim.ScheduleAfter(1 + static_cast<TimeNs>(churn.Next() % 200000),
                            [&churn] { ++churn.fired; });
      if (churn.Next() % 2 == 0) {
        sim.Cancel(one);
      }
    };
    sim.ScheduleAt(static_cast<TimeNs>(churn.Next() % 100000),
                   actors[static_cast<std::size_t>(i)]);
  }
  std::vector<std::function<void()>> ticks(kPeriodics);
  for (int i = 0; i < kPeriodics; ++i) {
    const TimeNs period = 30000 + 1000 * i;
    ticks[static_cast<std::size_t>(i)] = [&sim, &churn, &ticks, i, period] {
      ++churn.fired;
      sim.ScheduleAfter(period, ticks[static_cast<std::size_t>(i)]);
    };
    sim.ScheduleAt(period, ticks[static_cast<std::size_t>(i)]);
  }
  sim.RunUntil(horizon);
  return EngineResult{sim.events_executed(), SecondsSince(start)};
}

EngineResult RunWheel(TimeNs horizon) {
  Simulation sim;
  Churn churn;
  const auto start = std::chrono::steady_clock::now();
  std::vector<EventId> actors;
  actors.reserve(kActors);
  for (int i = 0; i < kActors; ++i) {
    actors.push_back(sim.CreateTimer([&sim, &churn, &actors, i] {
      ++churn.fired;
      sim.Arm(actors[static_cast<std::size_t>(i)], sim.Now() + churn.Delay());
      const EventId one =
          sim.ScheduleAfter(1 + static_cast<TimeNs>(churn.Next() % 200000),
                            [&churn] { ++churn.fired; });
      if (churn.Next() % 2 == 0) {
        sim.Cancel(one);
      }
    }));
    sim.Arm(actors.back(), static_cast<TimeNs>(churn.Next() % 100000));
  }
  for (int i = 0; i < kPeriodics; ++i) {
    const TimeNs period = 30000 + 1000 * i;
    sim.SchedulePeriodic(period, period, [&churn] { ++churn.fired; });
  }
  sim.RunUntil(horizon);
  return EngineResult{sim.events_executed(), SecondsSince(start)};
}

// Per-event cost distribution: the wheel workload advanced in fixed
// sim-time chunks, sampling wall-clock ns per event for each chunk (timing
// individual callbacks would perturb what it measures). Percentiles are over
// the chunk samples.
struct PerEventNs {
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};

PerEventNs RunWheelPercentiles(TimeNs horizon) {
  Simulation sim;
  Churn churn;
  std::vector<EventId> actors;
  actors.reserve(kActors);
  for (int i = 0; i < kActors; ++i) {
    actors.push_back(sim.CreateTimer([&sim, &churn, &actors, i] {
      ++churn.fired;
      sim.Arm(actors[static_cast<std::size_t>(i)], sim.Now() + churn.Delay());
      const EventId one =
          sim.ScheduleAfter(1 + static_cast<TimeNs>(churn.Next() % 200000),
                            [&churn] { ++churn.fired; });
      if (churn.Next() % 2 == 0) {
        sim.Cancel(one);
      }
    }));
    sim.Arm(actors.back(), static_cast<TimeNs>(churn.Next() % 100000));
  }
  for (int i = 0; i < kPeriodics; ++i) {
    const TimeNs period = 30000 + 1000 * i;
    sim.SchedulePeriodic(period, period, [&churn] { ++churn.fired; });
  }

  constexpr int kChunks = 200;
  const TimeNs chunk = horizon / kChunks;
  std::vector<double> samples;
  samples.reserve(kChunks);
  sim.RunUntil(chunk);  // Warm-up chunk: pool growth, wheel priming.
  for (int i = 1; i < kChunks; ++i) {
    const std::uint64_t before = sim.events_executed();
    const auto start = std::chrono::steady_clock::now();
    sim.RunUntil(chunk * (i + 1));
    const double wall_ns = SecondsSince(start) * 1e9;
    const std::uint64_t events = sim.events_executed() - before;
    if (events > 0) {
      samples.push_back(wall_ns / static_cast<double>(events));
    }
  }
  std::sort(samples.begin(), samples.end());
  const auto at = [&samples](double q) {
    if (samples.empty()) return 0.0;
    const auto index = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1));
    return samples[index];
  };
  return PerEventNs{at(0.50), at(0.90), at(0.99)};
}

// Harness comparison: the same batch of short full-system simulations run
// serially and through RunSimulations on the worker pool. The per-cell
// results are identical; only the wall clock differs.
std::uint64_t HarnessCell(SchedKind kind, bool capped, TimeNs duration) {
  ScenarioConfig config;
  config.scheduler = kind;
  config.capped = capped;
  Scenario scenario = BuildScenario(config);
  scenario.vantage->EnableInstrumentation();
  CpuHogWorkload loop(scenario.machine, scenario.vantage);
  loop.Start(0);
  BackgroundWorkloads background;
  AttachBackground(scenario, Background::kIo, 1, background);
  scenario.machine->Start();
  scenario.machine->RunFor(duration);
  RecordScenarioMetrics(scenario);
  return scenario.machine->sim().events_executed();
}

}  // namespace

int main() {
  const TimeNs horizon = MeasureDuration(2 * kSecond);

  PrintHeader("Event engine: events/sec, heap+tombstones vs timer wheel + pool");
  const EngineResult legacy = RunLegacy(horizon);
  const EngineResult wheel = RunWheel(horizon);
  const double legacy_rate = static_cast<double>(legacy.events) / legacy.seconds;
  const double wheel_rate = static_cast<double>(wheel.events) / wheel.seconds;
  std::printf("legacy heap : %10.0f events/s  (%llu events in %.3f s)\n", legacy_rate,
              static_cast<unsigned long long>(legacy.events), legacy.seconds);
  std::printf("timer wheel : %10.0f events/s  (%llu events in %.3f s)\n", wheel_rate,
              static_cast<unsigned long long>(wheel.events), wheel.seconds);
  std::printf("speedup     : %10.2fx\n", wheel_rate / legacy_rate);
  std::printf("pre-PR wheel: %10.0f events/s  -> %.2fx this PR\n",
              kPrePrWheelEventsPerSec, wheel_rate / kPrePrWheelEventsPerSec);

  PrintHeader("Per-event cost: wall ns/event over fixed sim-time chunks");
  const PerEventNs per_event = RunWheelPercentiles(horizon);
  std::printf("p50 %.1f ns  p90 %.1f ns  p99 %.1f ns\n", per_event.p50,
              per_event.p90, per_event.p99);

  PrintHeader("Measurement harness: serial sweep vs parallel RunSimulations");
  const TimeNs cell_duration = 100 * kMillisecond;
  std::vector<std::function<std::uint64_t()>> tasks;
  for (const SchedKind kind : {SchedKind::kCredit, SchedKind::kRtds, SchedKind::kTableau}) {
    tasks.push_back([=] { return HarnessCell(kind, /*capped=*/true, cell_duration); });
  }
  for (const SchedKind kind : {SchedKind::kCredit, SchedKind::kCredit2, SchedKind::kTableau}) {
    tasks.push_back([=] { return HarnessCell(kind, /*capped=*/false, cell_duration); });
  }
  const auto serial_start = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> serial_cells;
  for (const auto& task : tasks) {
    serial_cells.push_back(task());
  }
  const double serial_seconds = SecondsSince(serial_start);
  const auto parallel_start = std::chrono::steady_clock::now();
  const std::vector<std::uint64_t> parallel_cells = RunSimulations(tasks);
  const double parallel_seconds = SecondsSince(parallel_start);
  bool identical = serial_cells == parallel_cells;
  std::printf("serial   : %.3f s for %zu simulations\n", serial_seconds, tasks.size());
  std::printf("parallel : %.3f s on %d threads (results %s)\n", parallel_seconds,
              BenchThreads(), identical ? "identical" : "DIVERGED");

  BenchJson json("sim_engine");
  json.Add("legacy_events_per_sec", legacy_rate);
  json.Add("wheel_events_per_sec", wheel_rate);
  json.Add("speedup", wheel_rate / legacy_rate);
  json.Add("pre_pr_wheel_events_per_sec", kPrePrWheelEventsPerSec);
  json.Add("wheel_speedup_vs_pre_pr", wheel_rate / kPrePrWheelEventsPerSec);
  json.Add("per_event_ns_p50", per_event.p50);
  json.Add("per_event_ns_p90", per_event.p90);
  json.Add("per_event_ns_p99", per_event.p99);
  json.Add("harness_serial_sec", serial_seconds);
  json.Add("harness_parallel_sec", parallel_seconds);
  json.Add("harness_threads", BenchThreads());
  json.Add("harness_deterministic", identical ? 1 : 0);
  json.Write();
  return identical ? 0 : 1;
}
