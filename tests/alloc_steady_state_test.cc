// Zero-allocation steady-state proof (DESIGN.md "Simulation hot loop").
//
// This binary replaces the global allocator with a counting wrapper and
// drives the hot paths — the event engine's schedule/fire/cancel churn, the
// trace ring, the metrics handles, telemetry, and a fleet host's request
// path — asserting that after a warm-up phase (pool chunks, heap capacity,
// batch buffer, queues all at their high-water marks) the per-event path
// performs literally zero heap allocations. It also checks that a planner
// delta solve allocates nothing for the pCPUs it does not touch or for the
// metrics it records.
//
// The test lives in its own executable because the operator new/delete
// replacement is process-global; mixing it into another test binary would
// count that binary's unrelated traffic.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/planner.h"
#include "src/fleet/host.h"
#include "src/fleet/vm_stream.h"
#include "src/harness/fleet_scenario.h"
#include "src/hypervisor/trace.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/sim/simulation.h"
#include "src/stats/histogram.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) {
    align = sizeof(void*);
  }
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? align : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tableau {
namespace {

constexpr TimeNs kMillisecond = 1'000'000;

// The bench_sim_engine churn mix: self-rearming actors, strictly periodic
// ticks, one-shot schedule/cancel traffic at simulator delay scales.
struct Churn {
  std::uint64_t lcg = 42;
  std::uint64_t fired = 0;

  std::uint64_t Next() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 16;
  }
  TimeNs Delay() {
    const std::uint64_t pick = Next() % 16;
    if (pick < 12) return 1 + static_cast<TimeNs>(Next() % 100000);
    if (pick < 15) return 1 + static_cast<TimeNs>(Next() % 3000000);
    return 1 + static_cast<TimeNs>(Next() % 50000000);
  }
};

// Pushes the node pool and auxiliary buffers to a high-water mark well above
// anything the steady-state churn reaches, so a post-warm-up AllocNode can
// never trigger a fresh chunk.
void PrimePool(Simulation& sim, int nodes) {
  std::vector<EventId> primer;
  primer.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    primer.push_back(sim.ScheduleAfter(kMillisecond + i, [] {}));
  }
  for (const EventId id : primer) {
    sim.Cancel(id);
  }
}

TEST(AllocSteadyState, EngineChurnRunsAllocationFree) {
  Simulation sim;
  Churn churn;
  PrimePool(sim, 4096);

  constexpr int kActors = 64;
  constexpr int kPeriodics = 16;
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

  // Warm-up: several hundred thousand events, spanning many level-0
  // rotations, cascades, and the longest (50 ms) delay class.
  sim.RunUntil(400 * kMillisecond);

  const std::uint64_t allocs_before = AllocationCount();
  const std::uint64_t events_before = sim.events_executed();
  const std::size_t capacity_before = sim.pool_capacity();

  sim.RunUntil(800 * kMillisecond);

  const std::uint64_t events_run = sim.events_executed() - events_before;
  EXPECT_GT(events_run, 100000u) << "steady-state window too small to be meaningful";
  EXPECT_EQ(AllocationCount() - allocs_before, 0u)
      << "engine allocated during steady-state churn (" << events_run
      << " events)";
  EXPECT_EQ(sim.pool_capacity(), capacity_before);

  for (const EventId id : actors) {
    sim.Cancel(id);
  }
}

TEST(AllocSteadyState, TraceRecordingIsAllocationFreeFromConstruction) {
  constexpr std::size_t kCapacity = 1 << 12;
  TraceBuffer trace(kCapacity);

  // The ring arena is sized in the constructor: even the fill phase (before
  // the ring wraps) must not allocate, let alone the overwrite phase.
  const std::uint64_t allocs_before = AllocationCount();
  for (std::size_t i = 0; i < 3 * kCapacity; ++i) {
    trace.Record(static_cast<TimeNs>(i) * 1000,
                 static_cast<TraceEvent>(i % 6), static_cast<int>(i % 8),
                 static_cast<VcpuId>(i % 32), static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(AllocationCount() - allocs_before, 0u);
  EXPECT_EQ(trace.size(), kCapacity);
  EXPECT_EQ(trace.total_recorded(), 3 * kCapacity);
}

TEST(AllocSteadyState, HistogramAllocatesOnFirstRecordOnly) {
  // Every vCPU carries two HDR histograms and only instrumented vCPUs ever
  // record into them: construction must not touch the 58 KB bucket array.
  std::uint64_t allocs_before = AllocationCount();
  Histogram histogram;
  Histogram other;
  histogram.Merge(other);
  EXPECT_EQ(AllocationCount() - allocs_before, 0u);
  histogram.Record(42);
  EXPECT_EQ(AllocationCount() - allocs_before, 1u);
  allocs_before = AllocationCount();
  for (TimeNs v = 0; v < 1000; ++v) {
    histogram.Record(v * 997);
  }
  EXPECT_EQ(AllocationCount() - allocs_before, 0u);
  EXPECT_EQ(histogram.Count(), 1001u);
}

TEST(AllocSteadyState, MetricHandlesRecordAllocationFree) {
  obs::MetricsRegistry registry;
  // Handle lookup allocates (registry map nodes) — done once at setup.
  obs::Counter* counter = registry.GetCounter("test.counter");
  obs::Gauge* gauge = registry.GetGauge("test.gauge");
  obs::LatencyHistogram* hist = registry.GetHistogram("test.hist");

  const std::uint64_t allocs_before = AllocationCount();
  for (int i = 0; i < 100000; ++i) {
    counter->Increment();
    gauge->Set(static_cast<double>(i));
    hist->Record(static_cast<TimeNs>(i) * 37 % 5000000);
  }
  EXPECT_EQ(AllocationCount() - allocs_before, 0u);
  EXPECT_EQ(counter->value(), 100000);
  EXPECT_EQ(hist->ToValue().count, 100000u);
}

TEST(AllocSteadyState, InstrumentedChurnIsAllocationFreePerEvent) {
  // Full per-event observer stack: every event appends a trace record and a
  // histogram sample, the way Machine's dispatch cycle does.
  Simulation sim;
  TraceBuffer trace(1 << 14);
  obs::MetricsRegistry registry;
  obs::LatencyHistogram* hist = registry.GetHistogram("sim.event_gap_ns");
  obs::Counter* fired = registry.GetCounter("sim.fired");
  PrimePool(sim, 2048);

  // Shared observer state bundled behind one pointer so each callback
  // capture stays within EventCallback's inline buffer.
  struct Ctx {
    Simulation& sim;
    TraceBuffer& trace;
    obs::LatencyHistogram* hist;
    obs::Counter* fired;
    TimeNs last = 0;
    std::uint64_t rng = 7;
    std::vector<EventId> actors{};

    std::uint64_t Next() {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      return rng >> 16;
    }
  } ctx{sim, trace, hist, fired};

  constexpr int kActors = 32;
  ctx.actors.reserve(kActors);
  for (int i = 0; i < kActors; ++i) {
    ctx.actors.push_back(sim.CreateTimer([c = &ctx, i] {
      c->fired->Increment();
      c->hist->Record(c->sim.Now() - c->last);
      c->trace.Record(c->sim.Now(), TraceEvent::kDispatch, i % 8,
                      static_cast<VcpuId>(i));
      c->last = c->sim.Now();
      c->sim.Arm(c->actors[static_cast<std::size_t>(i)],
                 c->sim.Now() + 1 + static_cast<TimeNs>(c->Next() % 150000));
    }));
    sim.Arm(ctx.actors.back(), static_cast<TimeNs>(ctx.Next() % 50000));
  }

  sim.RunUntil(200 * kMillisecond);  // Warm-up, wraps the trace ring.
  EXPECT_GT(trace.dropped(), 0u) << "ring should have wrapped during warm-up";

  const std::uint64_t allocs_before = AllocationCount();
  const std::uint64_t events_before = sim.events_executed();
  sim.RunUntil(400 * kMillisecond);
  const std::uint64_t events_run = sim.events_executed() - events_before;
  EXPECT_GT(events_run, 10000u);
  EXPECT_EQ(AllocationCount() - allocs_before, 0u)
      << "instrumented event path allocated (" << events_run << " events)";

  for (const EventId id : ctx.actors) {
    sim.Cancel(id);
  }
}

TEST(AllocSteadyState, TelemetryRecordingHotPathIsAllocationFree) {
  // The full telemetry bundle (windowed rings + attributor + SLO tracker +
  // per-VM histograms): everything is sized at Bind, so the recording hooks
  // — the ones Machine drives once per dispatch cycle — must be
  // allocation-free, including ring eviction when samples advance past the
  // retained windows.
  obs::Telemetry::Config config;
  config.window_ns = kMillisecond;
  config.window_capacity = 32;
  obs::Telemetry telemetry(config);
  telemetry.Bind(/*num_cpus=*/2, /*num_vcpus=*/4, /*table_driven=*/true,
                 /*start=*/0);

  std::uint64_t rng = 11;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 16;
  };

  // Warm-up pass, then the measured pass: same mix, later times.
  const auto churn = [&](TimeNs base, int rounds) {
    TimeNs now = base;
    for (int i = 0; i < rounds; ++i) {
      const int vcpu = static_cast<int>(next() % 4);
      const obs::Telemetry::RequestMark mark = telemetry.BeginRequest(vcpu, now);
      telemetry.OnWakeup(vcpu, now);
      now += 1 + static_cast<TimeNs>(next() % 200000);
      telemetry.OnDispatch(vcpu, now);
      now += 1 + static_cast<TimeNs>(next() % 300000);
      telemetry.OnServiceRange(vcpu, static_cast<int>(next() % 2),
                               now - 50000, now);
      if (next() % 4 == 0) {
        telemetry.OnDeschedule(vcpu, now);
        now += 1 + static_cast<TimeNs>(next() % 100000);
        telemetry.OnTableSwitch(now, static_cast<TimeNs>(next() % 20000));
        telemetry.OnDispatch(vcpu, now);
      }
      telemetry.OnBlock(vcpu, now);
      telemetry.EndRequest(vcpu, mark, now,
                           static_cast<TimeNs>(next() % 100000));
      if (i % 16 == 0) {
        telemetry.OnCadenceSample(now, static_cast<int>(next() % 4),
                                  static_cast<int>(next() % 2));
      }
    }
    return now;
  };

  const TimeNs resume = churn(0, 2000);
  const std::uint64_t allocs_before = AllocationCount();
  churn(resume, 20000);
  EXPECT_EQ(AllocationCount() - allocs_before, 0u)
      << "telemetry recording hot path allocated";
  EXPECT_GT(telemetry.RequestLatencyHistogram(3).count, 0u);
}

TEST(AllocSteadyState, FleetRequestPathIsAllocationFree) {
  // One fleet host wired the way BuildFleetConfig wires every host of the
  // 64-host fleet (Tableau machine, slot guests, telemetry with no vantage
  // VM), serving open-loop VM streams. Between control ticks the cluster
  // only advances the host's engine and takes the telemetry cadence sample
  // at the barrier, which is what this loop does. Each request posts a
  // guest work item, runs, completes, and records its SLO span.
  FleetScenarioConfig scenario;
  scenario.num_hosts = 1;
  scenario.cpus_per_host = 4;
  scenario.cores_per_socket = 2;
  scenario.slots_per_core = 4;
  scenario.num_vms = 8;
  const fleet::ClusterConfig cluster = BuildFleetConfig(scenario);
  fleet::Host host(cluster.host);
  Machine& machine = host.machine();
  machine.Start();

  std::vector<std::unique_ptr<fleet::VmStream>> streams;
  for (const fleet::VmReservation& spec : cluster.vms) {
    const int slot = host.AdmitVm(spec.utilization, spec.latency_goal);
    ASSERT_GE(slot, 0);
    streams.push_back(std::make_unique<fleet::VmStream>(spec));
    streams.back()->Activate(&machine, host.slot_guest(slot), host.telemetry(), slot,
                             cluster.admission_latency);
  }
  TimeNs tick = 0;
  const auto run_ticks = [&](int ticks) {
    for (int i = 0; i < ticks; ++i) {
      tick += cluster.control_period;
      machine.sim().RunUntil(tick);
      machine.SampleTelemetryCadence(tick);
    }
  };
  const auto completed = [&streams] {
    std::uint64_t total = 0;
    for (const auto& stream : streams) {
      total += stream->completed();
    }
    return total;
  };

  // Warm-up: tables live, queues at their high-water marks. The engine's
  // heap of events behind its wheel cursor first fills at ~1.3 s in this
  // configuration (and never grows again over a 30 s run).
  run_ticks(200);
  const std::uint64_t allocs_before = AllocationCount();
  const std::uint64_t completed_before = completed();
  run_ticks(200);
  const std::uint64_t requests = completed() - completed_before;
  EXPECT_GT(requests, 3000u) << "steady-state window too small to be meaningful";
  EXPECT_EQ(AllocationCount() - allocs_before, 0u)
      << "fleet request path allocated over " << requests << " requests";
  EXPECT_EQ(host.telemetry()->slo().VerdictFor(0).requests,
            streams.front()->completed());
}

// Heap allocations made by one arrival solved as a delta of a full plan of
// `vms` plan_churn-sized VMs (U = 0.25, 1 ms goal) on `cpus` pCPUs. Every VM
// is pinned to socket 0, the first `socket_cpus` pCPUs, so the rest stay
// idle. The planner records into `registry`, if any.
struct DeltaAllocations {
  std::uint64_t solve = 0;
  std::size_t dirty_cores = 0;
  std::size_t touched_tasks = 0;  // Tasks on the dirty core after the arrival.
};
DeltaAllocations CountDeltaAllocations(int cpus, int socket_cpus, int vms,
                                       obs::MetricsRegistry* registry = nullptr,
                                       bool wall_timings = true) {
  PlannerConfig config;
  config.num_cpus = cpus;
  config.cores_per_socket = socket_cpus;
  config.metrics = registry;
  config.wall_timings = wall_timings;
  const Planner planner(config);
  std::vector<VcpuRequest> requests;
  for (VcpuId id = 0; id <= vms; ++id) {
    requests.push_back(VcpuRequest{id, 0.25, kMillisecond, /*socket_affinity=*/0});
  }
  const std::vector<VcpuRequest> arrival = {requests.back()};
  requests.pop_back();
  const PlanResult base = planner.Solve(PlanRequest::Full(std::move(requests)));
  EXPECT_TRUE(base.success) << base.error;
  DeltaAllocations counted;
  const std::uint64_t before = AllocationCount();
  const PlanResult next = planner.Solve(PlanRequest::Delta(base, arrival));
  counted.solve = AllocationCount() - before;
  EXPECT_TRUE(next.success) << next.error;
  counted.dirty_cores = next.dirty_cores.size();
  if (counted.dirty_cores == 1) {
    counted.touched_tasks =
        next.core_tasks[static_cast<std::size_t>(next.dirty_cores[0])].size();
  }
  return counted;
}

TEST(AllocSteadyState, DeltaSolveAllocationsDoNotGrowWithUntouchedCpus) {
  // plan_churn's host, 160 VMs on 44 pCPUs; the arrival touches one pCPU,
  // which then holds four tasks.
  const DeltaAllocations base = CountDeltaAllocations(44, 44, 160);
  ASSERT_EQ(base.dirty_cores, 1u);
  ASSERT_EQ(base.touched_tasks, 4u);
  // The same host inside 88 and 176 pCPUs, the rest idle, and hosts of 88
  // and 176 busy pCPUs with as many VMs per pCPU (3.6), so that in every
  // case the arrival lands on a pCPU of three tasks: only the untouched
  // pCPUs differ, and they must cost no allocation, busy or idle.
  const struct {
    int cpus;
    int socket_cpus;
    int vms;
  } cases[] = {{88, 44, 160}, {88, 88, 320}, {176, 44, 160}, {176, 176, 640}};
  for (const auto& c : cases) {
    const DeltaAllocations counted = CountDeltaAllocations(c.cpus, c.socket_cpus, c.vms);
    ASSERT_EQ(counted.dirty_cores, 1u) << c.cpus << " pCPUs, " << c.socket_cpus << " busy";
    ASSERT_EQ(counted.touched_tasks, base.touched_tasks);
    EXPECT_EQ(counted.solve, base.solve)
        << c.cpus << " pCPUs, " << c.socket_cpus << " busy, " << c.vms << " VMs";
  }
}

TEST(AllocSteadyState, DeltaSolveMetricsCostNoAllocation) {
  // A planner looks its planner.* handles up once, at its first solve: a
  // delta solve recording into a registry, with and without the wall-clock
  // phase timers, allocates exactly as often as one with no registry.
  const DeltaAllocations bare = CountDeltaAllocations(44, 44, 160);
  for (const bool wall_timings : {true, false}) {
    obs::MetricsRegistry registry;
    const DeltaAllocations counted =
        CountDeltaAllocations(44, 44, 160, &registry, wall_timings);
    EXPECT_EQ(counted.solve, bare.solve) << "wall_timings " << wall_timings;
    const obs::MetricsSnapshot snapshot = registry.Snapshot();
    EXPECT_EQ(snapshot.values.at("planner.plans").counter, 1);  // Full solves.
    EXPECT_EQ(snapshot.values.at("planner.incremental_plans").counter, 1);
    EXPECT_EQ(snapshot.values.count("planner.plan_total_ns"), wall_timings ? 1u : 0u);
  }
}

}  // namespace
}  // namespace tableau
