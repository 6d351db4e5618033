// Analytic EDF schedulability tests, used to cross-validate the simulator in
// property tests and for fast checks during C=D binary searches.
#ifndef SRC_RT_SCHEDULABILITY_H_
#define SRC_RT_SCHEDULABILITY_H_

#include <vector>

#include "src/common/time.h"
#include "src/rt/periodic_task.h"

namespace tableau {

// Total demand of the task set over an interval of length t under synchronous
// release (the demand bound function).
TimeNs DemandBound(const std::vector<PeriodicTask>& tasks, TimeNs t);

// Quick Processor-demand Analysis (Zhang & Burns, 2009): an exact EDF test
// for synchronous constrained-deadline sets that iterates t <- dbf(t)
// downward from the last deadline before the analysis bound instead of
// enumerating every deadline: equivalent to checking dbf(t) <= t at every
// absolute deadline t in (0, hyperperiod], but typically visits far fewer
// points. Used for fast feasibility pre-checks in C=D binary searches.
bool QpaSchedulable(const std::vector<PeriodicTask>& tasks, TimeNs hyperperiod);

}  // namespace tableau

#endif  // SRC_RT_SCHEDULABILITY_H_
