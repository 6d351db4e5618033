#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "src/sim/simulation.h"

namespace tableau {
namespace {

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulation, SameTimeEventsRunFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Simulation, ClockAdvancesToEventTime) {
  Simulation sim;
  TimeNs seen = -1;
  sim.ScheduleAt(42, [&] { seen = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(seen, 42);
}

TEST(Simulation, RunUntilStopsAtLimit) {
  Simulation sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(20, [&] { ++fired; });
  sim.ScheduleAt(30, [&] { ++fired; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 20);
  sim.RunUntil(30);
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.ScheduleAt(10, [&] { fired = true; });
  sim.Cancel(id);
  sim.RunAll();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelIsIdempotentAndSafeAfterFire) {
  Simulation sim;
  int fired = 0;
  const EventId id = sim.ScheduleAt(10, [&] { ++fired; });
  sim.RunAll();
  sim.Cancel(id);  // Already fired: no-op.
  sim.Cancel(id);
  sim.Cancel(kInvalidEvent);
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  std::vector<TimeNs> times;
  std::function<void()> chain = [&] {
    times.push_back(sim.Now());
    if (times.size() < 5) {
      sim.ScheduleAfter(10, chain);
    }
  };
  sim.ScheduleAt(0, chain);
  sim.RunAll();
  EXPECT_EQ(times, (std::vector<TimeNs>{0, 10, 20, 30, 40}));
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  TimeNs fired_at = -1;
  sim.ScheduleAt(100, [&] { sim.ScheduleAfter(5, [&] { fired_at = sim.Now(); }); });
  sim.RunAll();
  EXPECT_EQ(fired_at, 105);
}

TEST(Simulation, CancelInsideEvent) {
  Simulation sim;
  bool fired = false;
  const EventId target = sim.ScheduleAt(20, [&] { fired = true; });
  sim.ScheduleAt(10, [&] { sim.Cancel(target); });
  sim.RunAll();
  EXPECT_FALSE(fired);
}

TEST(Simulation, RunUntilAdvancesClockWithNoEvents) {
  Simulation sim;
  sim.RunUntil(1000);
  EXPECT_EQ(sim.Now(), 1000);
}

TEST(SimulationDeathTest, SchedulingInThePastAborts) {
  Simulation sim;
  sim.ScheduleAt(100, [] {});
  sim.RunAll();
  EXPECT_DEATH(sim.ScheduleAt(50, [] {}), "scheduled in the past");
}

TEST(SimulationDeathTest, RunUntilFromInsideAnEventAborts) {
  Simulation sim;
  sim.ScheduleAt(10, [&sim] { sim.RunUntil(20); });
  EXPECT_DEATH(sim.RunAll(), "RunUntil called from inside an event");
}

// --- Timer-wheel routing: near/L0 through every cascade level and the
// overflow heap (level-0 slots are 1024 ns; each level covers 256x more).

TEST(SimulationWheel, FiresInOrderAcrossAllLevelsAndOverflow) {
  Simulation sim;
  // One event per time scale: same slot, level 0..3, and past the ~73 min
  // wheel horizon (overflow heap).
  const std::vector<TimeNs> times = {
      3,
      1000,                      // level 0
      300 * 1000,                // level 1
      80 * 1000 * 1000,         // level 2
      20ll * 1000 * 1000 * 1000, // level 3
      5ll * 3600 * 1000 * 1000 * 1000,  // overflow (5 hours)
  };
  std::vector<TimeNs> fired;
  // Schedule in reverse so arrival order disagrees with time order.
  for (auto it = times.rbegin(); it != times.rend(); ++it) {
    const TimeNs at = *it;
    sim.ScheduleAt(at, [&fired, at] { fired.push_back(at); });
  }
  sim.CheckInvariantsForTest();
  sim.RunAll();
  EXPECT_EQ(fired, times);
}

TEST(SimulationWheel, InterleavedArrivalsAcrossCascadeBoundaries) {
  // Events landing just before/after level-boundary multiples while the
  // clock advances, exercising cursor-slot cascades.
  Simulation sim;
  std::vector<TimeNs> fired;
  for (TimeNs t : {262143, 262144, 262145, 524287, 524289, 67108863, 67108865}) {
    sim.ScheduleAt(t, [&fired, &sim] { fired.push_back(sim.Now()); });
  }
  // A driver that keeps inserting short-horizon events as time advances, so
  // level-0 slots fill up after base_ crosses each boundary.
  const EventId driver = sim.SchedulePeriodic(1000, 50000, [] {});
  sim.RunUntil(70000000);
  sim.Cancel(driver);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(fired.size(), 7u);
}

// --- Persistent timers: CreateTimer / Arm / Disarm semantics.

TEST(SimulationTimer, DormantUntilArmedAndRearmable) {
  Simulation sim;
  int fired = 0;
  const EventId timer = sim.CreateTimer([&] { ++fired; });
  sim.RunUntil(100);
  EXPECT_EQ(fired, 0);  // Dormant: never fires on its own.
  sim.Arm(timer, 200);
  sim.RunUntil(300);
  EXPECT_EQ(fired, 1);
  sim.Arm(timer, 400);  // Same node, re-armed after going dormant.
  sim.RunUntil(500);
  EXPECT_EQ(fired, 2);
  sim.Cancel(timer);
}

TEST(SimulationTimer, ArmMovesAPendingEvent) {
  Simulation sim;
  std::vector<int> order;
  const EventId timer = sim.CreateTimer([&] { order.push_back(1); });
  sim.ScheduleAt(50, [&] { order.push_back(2); });
  sim.Arm(timer, 10);
  sim.Arm(timer, 90);  // Move later: the 50 event now runs first.
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(SimulationTimer, DisarmStopsPendingButKeepsTimer) {
  Simulation sim;
  int fired = 0;
  const EventId timer = sim.CreateTimer([&] { ++fired; });
  sim.Arm(timer, 10);
  sim.Disarm(timer);
  sim.RunUntil(100);
  EXPECT_EQ(fired, 0);
  sim.Arm(timer, 200);  // Still alive after Disarm.
  sim.RunUntil(300);
  EXPECT_EQ(fired, 1);
  sim.Cancel(timer);
  EXPECT_EQ(sim.live_events(), 0u);
}

TEST(SimulationPeriodic, FiresAtFixedIntervalsUntilCancelled) {
  Simulation sim;
  std::vector<TimeNs> ticks;
  const EventId id = sim.SchedulePeriodic(10, 25, [&] { ticks.push_back(sim.Now()); });
  sim.RunUntil(100);
  EXPECT_EQ(ticks, (std::vector<TimeNs>{10, 35, 60, 85}));
  sim.Cancel(id);
  sim.RunUntil(200);
  EXPECT_EQ(ticks.size(), 4u);
  EXPECT_EQ(sim.live_events(), 0u);
}

TEST(SimulationPeriodic, CallbackCanOverrideNextFireOrStop) {
  Simulation sim;
  std::vector<TimeNs> ticks;
  EventId id = kInvalidEvent;
  id = sim.SchedulePeriodic(10, 100, [&] {
    ticks.push_back(sim.Now());
    if (ticks.size() == 1) {
      sim.Arm(id, sim.Now() + 5);  // Override the period once.
    } else if (ticks.size() == 3) {
      sim.Disarm(id);  // Periodic timer stops but stays allocated.
    }
  });
  sim.RunUntil(1000);
  EXPECT_EQ(ticks, (std::vector<TimeNs>{10, 15, 115}));
  EXPECT_EQ(sim.live_events(), 1u);  // Dormant, still re-armable.
  sim.Cancel(id);
  EXPECT_EQ(sim.live_events(), 0u);
}

TEST(SimulationPeriodic, CancelFromInsideOwnCallbackWins) {
  Simulation sim;
  int fired = 0;
  EventId id = kInvalidEvent;
  id = sim.SchedulePeriodic(10, 10, [&] {
    ++fired;
    sim.Cancel(id);
  });
  sim.RunUntil(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.live_events(), 0u);
}

// --- FIFO order is defined by arm-call order across every scheduling API.

TEST(SimulationFifo, SameTimeOrderFollowsArmCallsAcrossApis) {
  Simulation sim;
  std::vector<int> order;
  const EventId timer = sim.CreateTimer([&] { order.push_back(1); });
  sim.ScheduleAt(50, [&] { order.push_back(0); });
  sim.Arm(timer, 50);
  sim.SchedulePeriodic(50, 1000, [&] { order.push_back(2); });
  sim.ScheduleAt(50, [&] { order.push_back(3); });
  sim.RunUntil(60);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// --- Stale-id safety: generation tags make reused pool slots detectable.

TEST(SimulationGeneration, StaleIdsAreNoOpsAfterSlotReuse) {
  Simulation sim;
  bool old_fired = false;
  const EventId old_id = sim.ScheduleAt(10, [&] { old_fired = true; });
  sim.Cancel(old_id);
  // The freed node is recycled for a new event; the old id must not alias it.
  bool new_fired = false;
  sim.ScheduleAt(20, [&] { new_fired = true; });
  sim.Cancel(old_id);   // Stale: must not cancel the new event.
  sim.Disarm(old_id);   // Stale: no-op.
  sim.RunAll();
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);
}

TEST(SimulationGenerationDeathTest, ArmOnDeadIdAborts) {
  Simulation sim;
  const EventId id = sim.ScheduleAt(10, [] {});
  sim.Cancel(id);
  EXPECT_DEATH(sim.Arm(id, 100), "dead event id");
}

// --- Memory regression: schedule/fire/cancel churn must not grow the pool
// (the seed engine leaked a tombstone per Cancel of an unfired event and a
// heap entry per pending move).

TEST(SimulationMemory, ChurnKeepsPoolCapacityBounded) {
  Simulation sim;
  const EventId pacer = sim.CreateTimer([] {});
  for (int round = 0; round < 20000; ++round) {
    const EventId one = sim.ScheduleAfter(1 + round % 512, [] {});
    if (round % 2 == 0) {
      sim.Cancel(one);
    }
    sim.Arm(pacer, sim.Now() + 1 + round % 1024);  // Repeated pending moves.
    sim.RunUntil(sim.Now() + round % 64);
  }
  sim.RunAll();
  EXPECT_EQ(sim.live_events(), 1u);  // Just the dormant pacer.
  // The pool never needs more nodes than the peak number of simultaneously
  // live events (a handful here) rounded up to one 256-node chunk.
  EXPECT_LE(sim.pool_capacity(), 256u);
  sim.CheckInvariantsForTest();
}

// --- Randomized differential test: the wheel engine vs a naive
// (time, seq)-sorted reference model, with structural invariants checked
// along the way.

TEST(SimulationStress, MatchesReferenceModelUnderRandomChurn) {
  std::uint64_t lcg = 2024;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 16;
  };
  Simulation sim;
  std::vector<std::pair<TimeNs, int>> fired;       // Engine's execution log.
  std::vector<std::pair<TimeNs, int>> expected;    // Reference prediction.

  constexpr int kTimers = 24;
  std::vector<EventId> timers;
  std::vector<std::uint64_t> pending_stamp(kTimers, 0);  // 0 = not pending.
  std::uint64_t stamp = 0;
  // Reference model: (time, arm stamp) -> tag, mirroring every Arm call.
  std::multimap<std::pair<TimeNs, std::uint64_t>, int> model;

  for (int i = 0; i < kTimers; ++i) {
    const int tag = i;
    timers.push_back(sim.CreateTimer([&, tag] { fired.push_back({sim.Now(), tag}); }));
  }
  auto arm = [&](int tag, TimeNs at) {
    if (pending_stamp[static_cast<std::size_t>(tag)] != 0) {
      // Erase the superseded reference entry.
      for (auto it = model.begin(); it != model.end(); ++it) {
        if (it->second == tag) {
          model.erase(it);
          break;
        }
      }
    }
    ++stamp;
    pending_stamp[static_cast<std::size_t>(tag)] = stamp;
    model.emplace(std::make_pair(at, stamp), tag);
    sim.Arm(timers[static_cast<std::size_t>(tag)], at);
  };

  TimeNs horizon = 0;
  for (int round = 0; round < 4000; ++round) {
    // Drain the model of everything up to the next horizon and advance.
    const int tag = static_cast<int>(next() % kTimers);
    TimeNs delay;
    switch (next() % 4) {
      case 0: delay = 1 + static_cast<TimeNs>(next() % 1000); break;
      case 1: delay = 1 + static_cast<TimeNs>(next() % 300000); break;
      case 2: delay = 1 + static_cast<TimeNs>(next() % 70000000); break;
      default: delay = 1 + static_cast<TimeNs>(next() % 30000000000ll); break;
    }
    arm(tag, horizon + delay);
    if (next() % 3 == 0) {
      // Disarm a random pending timer.
      const int victim = static_cast<int>(next() % kTimers);
      if (pending_stamp[static_cast<std::size_t>(victim)] != 0) {
        for (auto it = model.begin(); it != model.end(); ++it) {
          if (it->second == victim) {
            model.erase(it);
            break;
          }
        }
        pending_stamp[static_cast<std::size_t>(victim)] = 0;
        sim.Disarm(timers[static_cast<std::size_t>(victim)]);
      }
    }
    if (round % 7 == 0) {
      sim.CheckInvariantsForTest();
    }
    // Advance in random hops, collecting expected firings from the model.
    const TimeNs hop = 1 + static_cast<TimeNs>(next() % 5000000);
    horizon += hop;
    while (!model.empty() && model.begin()->first.first <= horizon) {
      expected.push_back({model.begin()->first.first, model.begin()->second});
      pending_stamp[static_cast<std::size_t>(model.begin()->second)] = 0;
      model.erase(model.begin());
    }
    sim.RunUntil(horizon);
    ASSERT_EQ(fired.size(), expected.size()) << "round " << round;
  }
  EXPECT_EQ(fired, expected);
  sim.CheckInvariantsForTest();
}

}  // namespace
}  // namespace tableau
