// Differential property test for the analytic admission ladder
// (src/rt/admission.h): on fuzzed uniprocessor task sets, the ladder's
// verdict must equal the exact EDF simulation's, and the analytic rungs must
// never contradict it (accept => simulation accepts; reject => simulation
// rejects). Any disagreement is greedily shrunk to a minimal task set and
// printed as a reproducer.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/check/shrink.h"
#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/rt/admission.h"
#include "src/rt/edf_sim.h"
#include "src/rt/periodic_task.h"

namespace tableau {
namespace {

// Small, highly divisible hyperperiod so each EDF simulation is cheap and the
// sweep can afford thousands of sets. 55440 = 2^4 * 3^2 * 5 * 7 * 11.
constexpr TimeNs kFuzzHyperperiod = 55440;
constexpr int kFuzzSets = 4000;

std::vector<TimeNs> DivisorsOf(TimeNs h, TimeNs min_divisor) {
  std::vector<TimeNs> divisors;
  for (TimeNs d = min_divisor; d <= h; ++d) {
    if (h % d == 0) {
      divisors.push_back(d);
    }
  }
  return divisors;
}

// One fuzzed task set: mixed implicit / constrained-deadline / offset tasks
// over divisor periods, with total utilization biased into [0.7, 1.1] so the
// sweep concentrates near the schedulability boundary.
std::vector<PeriodicTask> FuzzTaskSet(Rng& rng, const std::vector<TimeNs>& periods) {
  const int n = static_cast<int>(rng.UniformInt(1, 6));
  const double target_util = rng.UniformDouble(0.7, 1.1);
  std::vector<PeriodicTask> tasks;
  for (int i = 0; i < n; ++i) {
    PeriodicTask task;
    task.vcpu = i;
    task.period = periods[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(periods.size()) - 1))];
    const double share = target_util / n * rng.UniformDouble(0.5, 1.5);
    task.cost = std::max<TimeNs>(
        1, static_cast<TimeNs>(share * static_cast<double>(task.period)));
    task.cost = std::min(task.cost, task.period);
    switch (rng.UniformInt(0, 2)) {
      case 0:  // Implicit deadline.
        task.deadline = task.period;
        task.offset = 0;
        break;
      case 1:  // Constrained deadline, synchronous release.
        task.deadline = rng.UniformInt(task.cost, task.period);
        task.offset = 0;
        break;
      default:  // Release offset; D <= T - offset (the C=D piece shape).
        task.offset = rng.UniformInt(0, task.period - task.cost);
        task.deadline = rng.UniformInt(task.cost, task.period - task.offset);
        break;
    }
    tasks.push_back(task);
  }
  return tasks;
}

std::string FormatTaskSet(const std::vector<PeriodicTask>& tasks) {
  std::ostringstream out;
  out << "hyperperiod=" << kFuzzHyperperiod << "\n";
  for (const PeriodicTask& t : tasks) {
    out << "  task vcpu=" << t.vcpu << " C=" << t.cost << " T=" << t.period
        << " D=" << t.deadline << " offset=" << t.offset << "\n";
  }
  return out.str();
}

// True when the ladder and the exact simulation disagree on `tasks`.
bool Disagrees(const std::vector<PeriodicTask>& tasks) {
  const bool exact = EdfSchedulable(tasks, kFuzzHyperperiod);
  return AdmitCore(tasks, kFuzzHyperperiod).schedulable != exact;
}

// Greedy delta-debugging: repeatedly drop any task whose removal preserves
// the disagreement, until no single removal does.
std::vector<PeriodicTask> Shrink(std::vector<PeriodicTask> tasks) {
  const auto without_one = [](const std::vector<PeriodicTask>& set) {
    std::vector<std::vector<PeriodicTask>> candidates;
    for (std::size_t i = 0; set.size() > 1 && i < set.size(); ++i) {
      candidates.push_back(set);
      candidates.back().erase(candidates.back().begin() +
                              static_cast<std::ptrdiff_t>(i));
    }
    return candidates;
  };
  return check::GreedyShrink(
             std::move(tasks), without_one,
             [](const std::vector<PeriodicTask>&) { return true; }, Disagrees,
             std::numeric_limits<int>::max())
      .spec;
}

TEST(AdmissionDifferential, LadderVerdictMatchesEdfSimulation) {
  const std::vector<TimeNs> periods = DivisorsOf(kFuzzHyperperiod, 8);
  ASSERT_FALSE(periods.empty());
  Rng rng(0xad1155u);
  AdmissionTally tally;
  for (int set = 0; set < kFuzzSets; ++set) {
    const std::vector<PeriodicTask> tasks = FuzzTaskSet(rng, periods);
    const bool exact = EdfSchedulable(tasks, kFuzzHyperperiod);
    const AdmissionDecision decision = AdmitCore(tasks, kFuzzHyperperiod, &tally);
    if (decision.schedulable != exact) {
      const std::vector<PeriodicTask> minimal = Shrink(tasks);
      FAIL() << "ladder said " << (decision.schedulable ? "schedulable" : "unschedulable")
             << " at rung " << AdmissionRungName(decision.rung) << ", simulation says "
             << (exact ? "schedulable" : "unschedulable") << " (set " << set
             << ")\nshrunk reproducer:\n"
             << FormatTaskSet(minimal);
    }
    // The analytic rungs alone must never contradict the simulation either.
    if (const std::optional<AdmissionDecision> analytic =
            AdmitCoreAnalytic(tasks, kFuzzHyperperiod)) {
      ASSERT_EQ(analytic->schedulable, exact)
          << "analytic rung " << AdmissionRungName(analytic->rung)
          << " contradicts the simulation\n"
          << FormatTaskSet(Shrink(tasks));
      ASSERT_NE(analytic->rung, AdmissionRung::kSimulation);
    }
  }
  // The sweep must exercise the whole ladder: every rung decides some sets,
  // and the analytic rungs together resolve a solid majority.
  const std::int64_t analytic = tally.Count(AdmissionRung::kUtilization) +
                                tally.Count(AdmissionRung::kDensity) +
                                tally.Count(AdmissionRung::kQpa);
  EXPECT_GT(tally.Count(AdmissionRung::kUtilization), 0);
  EXPECT_GT(tally.Count(AdmissionRung::kDensity), 0);
  EXPECT_GT(tally.Count(AdmissionRung::kQpa), 0);
  EXPECT_GT(tally.Count(AdmissionRung::kSimulation), 0);
  EXPECT_GT(analytic, kFuzzSets / 2);
}

// The empty set is trivially schedulable and must not reach the simulator.
TEST(AdmissionDifferential, EmptySetDecidedAnalytically) {
  AdmissionTally tally;
  const AdmissionDecision decision = AdmitCore({}, kFuzzHyperperiod, &tally);
  EXPECT_TRUE(decision.schedulable);
  EXPECT_EQ(decision.rung, AdmissionRung::kUtilization);
  EXPECT_EQ(tally.Count(AdmissionRung::kSimulation), 0);
}

}  // namespace
}  // namespace tableau
