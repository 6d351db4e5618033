// Analytic admission fast-path for uniprocessor EDF task sets: prunes
// expensive EDF table simulations with a schedcat-style ladder of cheap
// schedulability tests.
//
// The ladder runs cheapest-first and stops at the first rung that *decides*:
//
//   1. kUtilization — exact necessary test: saturating total demand over the
//      hyperperiod > capacity rejects. For all-implicit-deadline sets (the
//      common fully partitioned case) demand <= capacity is also sufficient
//      on a uniprocessor, so the same rung accepts outright.
//   2. kDensity — sufficient test: sum(C_i / D_i) <= 1 accepts any
//      constrained-deadline set regardless of release offsets. Evaluated in
//      long double with a conservative epsilon so float rounding can never
//      turn a boundary-unschedulable set into an accept.
//   3. kQpa — Quick Processor-demand Analysis on the synchronous transform
//      (offsets dropped; synchronous release is the worst case, so an accept
//      is sound for any offsets). Exact for offset-free sets, where a reject
//      also decides.
//   4. kSimulation — full EDF simulation over the hyperperiod: exact for
//      arbitrary offsets. Only reached when every analytic rung was
//      inconclusive.
//
// The full ladder's verdict is always identical to EdfSchedulable's (the
// differential property test tests/check_admission_test.cc fuzzes this);
// the rungs only change how much it costs to reach that verdict.
#ifndef SRC_RT_ADMISSION_H_
#define SRC_RT_ADMISSION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/time.h"
#include "src/rt/periodic_task.h"

namespace tableau {

enum class AdmissionRung {
  kUtilization = 0,
  kDensity = 1,
  kQpa = 2,
  kSimulation = 3,
};

inline const char* AdmissionRungName(AdmissionRung rung) {
  switch (rung) {
    case AdmissionRung::kUtilization:
      return "utilization";
    case AdmissionRung::kDensity:
      return "density";
    case AdmissionRung::kQpa:
      return "qpa";
    case AdmissionRung::kSimulation:
      return "simulation";
  }
  return "?";
}

struct AdmissionDecision {
  bool schedulable = false;
  AdmissionRung rung = AdmissionRung::kSimulation;  // The rung that decided.
};

// Per-rung decision counters. The planner owns one per solve and threads it
// through the pipeline (partition, C=D probes, per-core EDF), then folds the
// totals into PlanResult::admission and the planner.admission.* metrics.
struct AdmissionTally {
  std::int64_t by_rung[4] = {};

  void Record(AdmissionRung rung) { ++by_rung[static_cast<int>(rung)]; }
  std::int64_t Count(AdmissionRung rung) const { return by_rung[static_cast<int>(rung)]; }
};

// Analytic rungs only (1-3): returns the decision, or nullopt when every
// cheap test is inconclusive and only a full simulation can decide. Never
// simulates. All task periods must divide `hyperperiod`.
std::optional<AdmissionDecision> AdmitCoreAnalytic(
    const std::vector<PeriodicTask>& tasks, TimeNs hyperperiod);

// The full ladder: analytic rungs first, EDF simulation as the final rung.
// The verdict is exact (identical to EdfSchedulable). Records the deciding
// rung into `tally` when non-null.
AdmissionDecision AdmitCore(const std::vector<PeriodicTask>& tasks, TimeNs hyperperiod,
                            AdmissionTally* tally = nullptr);

}  // namespace tableau

#endif  // SRC_RT_ADMISSION_H_
