#include "src/schedulers/factory.h"

#include <array>
#include <cctype>

#include "src/common/check.h"
#include "src/schedulers/cfs.h"
#include "src/schedulers/credit.h"
#include "src/schedulers/credit2.h"
#include "src/schedulers/rtds.h"

namespace tableau {
namespace {

constexpr std::size_t kNumSchedKinds = std::size(kAllSchedKinds);

MadeScheduler BuildCredit(const SchedulerSpec& spec) {
  CreditScheduler::Options options;
  options.timeslice = spec.credit_timeslice;
  return MadeScheduler{std::make_unique<CreditScheduler>(options), nullptr};
}

MadeScheduler BuildCredit2(const SchedulerSpec& spec) {
  TABLEAU_CHECK_MSG(!spec.capped, "Credit2 does not support caps (Sec. 7.2)");
  return MadeScheduler{std::make_unique<Credit2Scheduler>(Credit2Scheduler::Options{}),
                       nullptr};
}

MadeScheduler BuildRtds(const SchedulerSpec& spec) {
  TABLEAU_CHECK_MSG(spec.capped, "RTDS reservations are inherently capped");
  return MadeScheduler{std::make_unique<RtdsScheduler>(), nullptr};
}

MadeScheduler BuildTableau(const SchedulerSpec& spec) {
  TableauDispatcher::Config dispatcher;
  dispatcher.work_conserving = !spec.capped;
  dispatcher.switch_slip_tolerance = spec.switch_slip_tolerance;
  auto owned = std::make_unique<TableauScheduler>(dispatcher);
  TableauScheduler* view = owned.get();
  return MadeScheduler{std::move(owned), view};
}

MadeScheduler BuildCfs(const SchedulerSpec& /*spec*/) {
  return MadeScheduler{std::make_unique<CfsScheduler>(CfsScheduler::Options{}), nullptr};
}

SchedulerBuilder DefaultBuilder(SchedKind kind) {
  switch (kind) {
    case SchedKind::kCredit:
      return BuildCredit;
    case SchedKind::kCredit2:
      return BuildCredit2;
    case SchedKind::kRtds:
      return BuildRtds;
    case SchedKind::kTableau:
      return BuildTableau;
    case SchedKind::kCfs:
      return BuildCfs;
  }
  return nullptr;
}

std::array<SchedulerBuilder, kNumSchedKinds>& Registry() {
  static std::array<SchedulerBuilder, kNumSchedKinds> registry = [] {
    std::array<SchedulerBuilder, kNumSchedKinds> builders;
    for (const SchedKind kind : kAllSchedKinds) {
      builders[static_cast<std::size_t>(kind)] = DefaultBuilder(kind);
    }
    return builders;
  }();
  return registry;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

const char* SchedKindName(SchedKind kind) {
  switch (kind) {
    case SchedKind::kCredit:
      return "Credit";
    case SchedKind::kCredit2:
      return "Credit2";
    case SchedKind::kRtds:
      return "RTDS";
    case SchedKind::kTableau:
      return "Tableau";
    case SchedKind::kCfs:
      return "CFS";
  }
  return "?";
}

std::optional<SchedKind> SchedKindFromName(std::string_view name) {
  for (const SchedKind kind : kAllSchedKinds) {
    if (EqualsIgnoreCase(name, SchedKindName(kind))) {
      return kind;
    }
  }
  return std::nullopt;
}

MadeScheduler MakeScheduler(const SchedulerSpec& spec) {
  const auto index = static_cast<std::size_t>(spec.kind);
  TABLEAU_CHECK_MSG(index < kNumSchedKinds, "unknown SchedKind %d",
                    static_cast<int>(spec.kind));
  const SchedulerBuilder& builder = Registry()[index];
  TABLEAU_CHECK_MSG(static_cast<bool>(builder), "no builder registered for %s",
                    SchedKindName(spec.kind));
  MadeScheduler made = builder(spec);
  TABLEAU_CHECK_MSG(made.scheduler != nullptr, "builder for %s returned null",
                    SchedKindName(spec.kind));
  return made;
}

void RegisterScheduler(SchedKind kind, SchedulerBuilder builder) {
  const auto index = static_cast<std::size_t>(kind);
  TABLEAU_CHECK(index < kNumSchedKinds);
  Registry()[index] = builder ? std::move(builder) : DefaultBuilder(kind);
}

}  // namespace tableau
