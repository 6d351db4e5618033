// ShardedSimulation: barrier semantics and the serial-equivalence guarantee —
// per-shard event streams (and hence fingerprints over (time, payload)
// sequences) are bit-identical whether the barrier runs the shard engines
// one after another or concurrently, on any number of workers.
#include "src/sim/sharded_sim.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "gtest/gtest.h"

namespace tableau {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void Mix(std::uint64_t& fp, std::uint64_t v) { fp = (fp ^ v) * kFnvPrime; }

std::uint64_t Lcg(std::uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return state >> 16;
}

// A multi-core scenario: per-shard self-rearming timers with deterministic
// pseudo-random periods, and a ring of cross-shard "IPIs" (every 8th fire
// queues one for the next shard with a pseudo-random latency). Shard events
// only queue their IPIs; the driver posts them between barriers, the way the
// fleet's control tick does. Each shard folds its observed event sequence
// into an FNV fingerprint.
struct Scenario {
  struct Ipi {
    int to = 0;
    TimeNs delay = 0;
  };
  struct Ctx {
    Scenario* scenario = nullptr;
    int shard = 0;
    std::uint64_t rng = 0;
    std::uint64_t fp = kFnvOffset;
    std::uint64_t fires = 0;
    std::uint64_t ipis = 0;
    EventId timer = kInvalidEvent;
    std::vector<Ipi> outbox;  // Written only by this shard's events.
  };

  explicit Scenario(const ShardedSimulation::Options& options, int shards = 4)
      : engines(MakeEngines(shards)), sim(EnginePointers(engines), options) {
    ctxs.resize(engines.size());
    for (int s = 0; s < sim.num_shards(); ++s) {
      Ctx* ctx = &ctxs[static_cast<std::size_t>(s)];
      ctx->scenario = this;
      ctx->shard = s;
      ctx->rng = 0x1234 + 77ull * static_cast<std::uint64_t>(s);
      Simulation& engine = sim.shard(s);
      ctx->timer = engine.CreateTimer([ctx] { Tick(ctx); });
      engine.Arm(ctx->timer, 1 + static_cast<TimeNs>(Lcg(ctx->rng) % 5000));
    }
  }

  static void Tick(Ctx* c) {
    Simulation& engine = c->scenario->sim.shard(c->shard);
    ++c->fires;
    Mix(c->fp, static_cast<std::uint64_t>(engine.Now()));
    Mix(c->fp, c->fires);
    if (c->fires % 8 == 0) {
      c->outbox.push_back(Ipi{(c->shard + 1) % c->scenario->sim.num_shards(),
                              static_cast<TimeNs>(Lcg(c->rng) % 40000)});
    }
    engine.Arm(c->timer,
               engine.Now() + 1 + static_cast<TimeNs>(Lcg(c->rng) % 20000));
  }

  // Runs to `horizon` in barriers `step` apart, posting each barrier's
  // queued IPIs before the next one.
  void Run(TimeNs horizon, TimeNs step) {
    while (sim.Now() < horizon) {
      sim.RunUntil(std::min(horizon, sim.Now() + step));
      for (Ctx& ctx : ctxs) {
        for (const Ipi& ipi : ctx.outbox) {
          Ctx* target = &ctxs[static_cast<std::size_t>(ipi.to)];
          const int from = ctx.shard;
          sim.Post(from, ipi.to, ipi.delay, [target, from] {
            ++target->ipis;
            Mix(target->fp, static_cast<std::uint64_t>(
                                target->scenario->sim.shard(target->shard).Now()));
            Mix(target->fp, 0x9e3779b97f4a7c15ull ^ static_cast<std::uint64_t>(from));
          });
        }
        ctx.outbox.clear();
      }
    }
  }

  std::vector<std::uint64_t> Fingerprints() const {
    std::vector<std::uint64_t> fps;
    fps.reserve(ctxs.size());
    for (const Ctx& ctx : ctxs) {
      fps.push_back(ctx.fp);
    }
    return fps;
  }

  std::uint64_t TotalIpis() const {
    std::uint64_t total = 0;
    for (const Ctx& ctx : ctxs) {
      total += ctx.ipis;
    }
    return total;
  }

  static std::vector<std::unique_ptr<Simulation>> MakeEngines(int shards) {
    std::vector<std::unique_ptr<Simulation>> engines;
    for (int s = 0; s < shards; ++s) {
      engines.push_back(std::make_unique<Simulation>());
    }
    return engines;
  }

  static std::vector<Simulation*> EnginePointers(
      const std::vector<std::unique_ptr<Simulation>>& engines) {
    std::vector<Simulation*> pointers;
    for (const auto& engine : engines) {
      pointers.push_back(engine.get());
    }
    return pointers;
  }

  // Declared before sim: the barrier's worker pool is joined first.
  std::vector<std::unique_ptr<Simulation>> engines;
  ShardedSimulation sim;
  std::vector<Ctx> ctxs;
};

constexpr TimeNs kHorizon = 20'000'000;  // 20 ms.
constexpr TimeNs kStep = 250'000;        // 80 barriers.

ShardedSimulation::Options MakeOptions(bool parallel, int threads = 0) {
  ShardedSimulation::Options options;
  options.parallel = parallel;
  options.num_threads = threads;
  return options;
}

TEST(ShardedSim, ParallelShardedMatchesSerial) {
  // The hardware-sized pool, and fewer workers than shards: 4 shards over 3
  // workers and 7 over 3 give uneven ranges, each run forward on even
  // barriers and backward on odd ones.
  const struct {
    int shards;
    int threads;
  } cases[] = {{4, 0}, {4, 3}, {7, 3}};
  for (const auto& c : cases) {
    Scenario serial(MakeOptions(/*parallel=*/false), c.shards);
    serial.Run(kHorizon, kStep);
    EXPECT_GT(serial.TotalIpis(), 100u) << "scenario must exercise cross-shard traffic";
    Scenario parallel(MakeOptions(/*parallel=*/true, c.threads), c.shards);
    parallel.Run(kHorizon, kStep);
    EXPECT_EQ(serial.TotalIpis(), parallel.TotalIpis())
        << c.shards << " shards, threads=" << c.threads;
    EXPECT_EQ(serial.sim.events_executed(), parallel.sim.events_executed())
        << c.shards << " shards, threads=" << c.threads;
    EXPECT_EQ(serial.Fingerprints(), parallel.Fingerprints())
        << c.shards << " shards, threads=" << c.threads;
  }
}

TEST(ShardedSim, BarriersAlternateTheEngineOrder) {
  // A serial barrier runs the engines 0..3, the next 3..0, the next 0..3
  // again: the engines one barrier ran last run first at the next. Running
  // to the current barrier is not a barrier and does not flip the order.
  const std::vector<std::unique_ptr<Simulation>> engines = Scenario::MakeEngines(4);
  ShardedSimulation sim(Scenario::EnginePointers(engines), MakeOptions(/*parallel=*/false));
  std::vector<int> order;
  for (int barrier = 1; barrier <= 3; ++barrier) {
    for (int s = 0; s < 4; ++s) {
      sim.shard(s).ScheduleAt(barrier * 100 - 50, [&order, s] { order.push_back(s); });
    }
    sim.RunUntil(barrier * 100);
    sim.RunUntil(barrier * 100);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 3, 2, 1, 0, 0, 1, 2, 3}));
  EXPECT_EQ(sim.epochs(), 3u);
}

TEST(ShardedSim, ShardedRunsAreReproducible) {
  Scenario a(MakeOptions(/*parallel=*/false));
  Scenario b(MakeOptions(/*parallel=*/false));
  a.Run(kHorizon, kStep);
  b.Run(kHorizon, kStep);
  EXPECT_EQ(a.Fingerprints(), b.Fingerprints());
}

TEST(ShardedSim, MessagePostedAtSetupArrivesAtExactDueTime) {
  Scenario scenario(MakeOptions(/*parallel=*/false));
  ShardedSimulation& sim = scenario.sim;
  TimeNs arrived_at = -1;
  sim.Post(0, 1, 50'000, [&sim, &arrived_at] { arrived_at = sim.shard(1).Now(); });
  sim.RunUntil(200'000);
  EXPECT_EQ(arrived_at, 50'000);
  // A zero delay is legal: the message runs at the barrier it was posted at.
  sim.Post(1, 0, 0, [&sim, &arrived_at] { arrived_at = sim.shard(0).Now(); });
  sim.RunUntil(300'000);
  EXPECT_EQ(arrived_at, 200'000);
}

TEST(ShardedSim, EpochBarriersAdvanceTheAgreedClock) {
  Scenario scenario(MakeOptions(/*parallel=*/false));
  ShardedSimulation& sim = scenario.sim;
  EXPECT_EQ(sim.Now(), 0);
  // Each RunUntil is exactly one barrier, however far it advances.
  sim.RunUntil(500'000);
  EXPECT_EQ(sim.Now(), 500'000);
  EXPECT_EQ(sim.epochs(), 1u);
  sim.RunUntil(525'000);
  EXPECT_EQ(sim.Now(), 525'000);
  EXPECT_EQ(sim.epochs(), 2u);
  // Running to the current barrier is not a new one.
  sim.RunUntil(525'000);
  EXPECT_EQ(sim.epochs(), 2u);
}

TEST(ShardedSim, MessageDueSeveralEpochsOutIsDeliveredOnce) {
  Scenario scenario(MakeOptions(/*parallel=*/false));
  ShardedSimulation& sim = scenario.sim;
  int delivered = 0;
  TimeNs arrived_at = -1;
  sim.Post(2, 0, 5 * kStep + 123, [&] {
    ++delivered;
    arrived_at = sim.shard(0).Now();
  });
  for (int barrier = 1; barrier <= 20; ++barrier) {
    sim.RunUntil(barrier * kStep);
  }
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(arrived_at, 5 * kStep + 123);
}

TEST(ShardedSimDeathTest, PostFromInsideAShardEventAborts) {
  Scenario scenario(MakeOptions(/*parallel=*/false));
  ShardedSimulation& sim = scenario.sim;
  sim.shard(0).ScheduleAt(10, [&sim] { sim.Post(0, 1, 0, [] {}); });
  EXPECT_DEATH(sim.RunUntil(100), "between RunUntil calls");
}

}  // namespace
}  // namespace tableau
