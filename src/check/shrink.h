// The one greedy delta-debugging shrinker behind every fuzzer in the repo
// (scenario specs, adaptive-controller specs, admission task sets). Callers
// supply the engine-specific parts: the candidate reductions of a spec,
// biggest first; a feasibility predicate that skips candidates the system
// under test cannot even build; and a reproduce predicate that re-runs a
// candidate and reports whether it still shows the same bug.
#ifndef SRC_CHECK_SHRINK_H_
#define SRC_CHECK_SHRINK_H_

#include <utility>

namespace tableau::check {

template <typename Spec>
struct ShrinkResult {
  Spec spec;
  int runs = 0;  // Reproduce-predicate calls the shrink spent.
};

// Repeatedly adopts the first feasible candidate that still reproduces, and
// starts over from it, until no candidate does or `max_runs` reproduce calls
// have been spent. Deterministic: the same inputs walk the same path.
template <typename Spec, typename Candidates, typename Feasible,
          typename Reproduces>
ShrinkResult<Spec> GreedyShrink(Spec spec, Candidates candidates,
                                Feasible feasible, Reproduces reproduces,
                                int max_runs) {
  ShrinkResult<Spec> result{std::move(spec), 0};
  bool progress = true;
  while (progress && result.runs < max_runs) {
    progress = false;
    for (Spec& candidate : candidates(result.spec)) {
      if (!feasible(candidate)) {
        continue;
      }
      ++result.runs;
      if (reproduces(candidate)) {
        result.spec = std::move(candidate);
        progress = true;
        break;
      }
      if (result.runs >= max_runs) {
        break;
      }
    }
  }
  return result;
}

}  // namespace tableau::check

#endif  // SRC_CHECK_SHRINK_H_
