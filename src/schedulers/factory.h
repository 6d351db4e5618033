// Scheduler factory (api_redesign): the single place that knows how to turn
// a SchedKind into a concrete VcpuScheduler. Everything above this layer —
// harness, benches, tools — names schedulers by SchedKind (or its string
// form) and never switch-cases over the enum.
//
// Note a deliberate divergence from a Machine*-taking factory: the Machine
// takes ownership of its scheduler at construction, so the factory runs
// *before* any Machine exists and takes a plain SchedulerSpec (the
// scheduler-relevant slice of ScenarioConfig) instead.
#ifndef SRC_SCHEDULERS_FACTORY_H_
#define SRC_SCHEDULERS_FACTORY_H_

#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "src/common/time.h"
#include "src/hypervisor/scheduler.h"
#include "src/schedulers/tableau_scheduler.h"

namespace tableau {

enum class SchedKind { kCredit, kCredit2, kRtds, kTableau, kCfs };

// All kinds, in registry order (handy for sweeps).
inline constexpr SchedKind kAllSchedKinds[] = {
    SchedKind::kCredit, SchedKind::kCredit2, SchedKind::kRtds, SchedKind::kTableau,
    SchedKind::kCfs,
};

// Display name ("Credit", "Credit2", "RTDS", "Tableau", "CFS").
const char* SchedKindName(SchedKind kind);

// Inverse of SchedKindName, case-insensitively (accepts "tableau", "RTDS",
// "Credit2", ...). Returns nullopt for unknown names; round-trips every kind:
// SchedKindFromName(SchedKindName(k)) == k.
std::optional<SchedKind> SchedKindFromName(std::string_view name);

// The scheduler-relevant slice of a scenario configuration.
struct SchedulerSpec {
  SchedKind kind = SchedKind::kTableau;
  // Capped (reservation-enforcing) scenario: Tableau runs without its
  // second-level scheduler, RTDS requires it, Credit2 refuses it (Sec. 7.2).
  bool capped = false;
  TimeNs credit_timeslice = 5 * kMillisecond;
  // Tableau-only dispatcher knob (default matches TableauDispatcher::Config).
  TimeNs switch_slip_tolerance = kTimeNever;
};

struct MadeScheduler {
  std::unique_ptr<VcpuScheduler> scheduler;
  // Non-owning view of the scheduler when kind == kTableau, else null.
  TableauScheduler* tableau = nullptr;
};

// Constructs the scheduler described by `spec` via the registry. Checks the
// spec invariants (Credit2 vs caps, RTDS vs no-caps) exactly as the harness
// switch-case used to.
MadeScheduler MakeScheduler(const SchedulerSpec& spec);

// Registry hook: replaces the builder for `kind` (tests, experimental
// schedulers). The default registry covers every SchedKind; pass nullptr to
// restore the built-in builder.
using SchedulerBuilder = std::function<MadeScheduler(const SchedulerSpec&)>;
void RegisterScheduler(SchedKind kind, SchedulerBuilder builder);

}  // namespace tableau

#endif  // SRC_SCHEDULERS_FACTORY_H_
