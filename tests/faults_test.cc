// Tests for the deterministic fault-injection subsystem: injector hook
// semantics (timers delayed never advanced, IPIs late never lost, bounded
// guest misbehavior), seed-driven determinism down to byte-identical machine
// traces, the faults-off identity guarantee, and the graceful-degradation
// policies (planner latency relaxation, replan keep-previous + exponential
// backoff).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/planner.h"
#include "src/core/replan.h"
#include "src/faults/fault_injector.h"
#include "src/faults/fault_plan.h"
#include "src/harness/scenario.h"
#include "src/workloads/stress.h"

namespace tableau {
namespace {

using faults::FaultInjector;
using faults::FaultPlan;
using faults::GuestFault;
using faults::IpiFault;
using faults::OverheadSpike;
using faults::TimerFault;

// --- Injector hook semantics -----------------------------------------------

TEST(FaultInjector, EmptyPlanIsIdentity) {
  FaultInjector injector{FaultPlan{}};
  EXPECT_EQ(injector.ScaleSchedOpCost(100, 250), 250);
  EXPECT_EQ(injector.ScaleContextSwitchCost(100, 900), 900);
  EXPECT_EQ(injector.PerturbTimerArm(100, 5000), 5000);
  EXPECT_EQ(injector.PerturbIpiDelay(100, 700), 700);
  EXPECT_EQ(injector.NextBurstOverrun(100), 0);
  EXPECT_EQ(injector.NextWakeupStormCount(100), 0);
  EXPECT_EQ(injector.NextPlannerOutcome(), FaultInjector::PlannerOutcome::kProceed);
}

TEST(FaultInjector, OverheadSpikeScalesOnlyInsideWindow) {
  FaultPlan plan;
  OverheadSpike spike;
  spike.window = {1000, 2000};
  spike.sched_op_multiplier = 3.0;
  spike.context_switch_multiplier = 2.0;
  plan.overhead_spikes.push_back(spike);
  FaultInjector injector(plan);
  EXPECT_EQ(injector.ScaleSchedOpCost(500, 100), 100);    // Before window.
  EXPECT_EQ(injector.ScaleSchedOpCost(1500, 100), 300);   // Inside.
  EXPECT_EQ(injector.ScaleContextSwitchCost(1500, 100), 200);
  EXPECT_EQ(injector.ScaleSchedOpCost(2000, 100), 100);   // Half-open end.
  EXPECT_EQ(injector.ScaleSchedOpCost(1500, 0), 0);       // Zero cost stays zero.
}

TEST(FaultInjector, TimerPerturbationDelayedNeverAdvanced) {
  FaultPlan plan;
  TimerFault fault;
  fault.max_jitter = 200 * kMicrosecond;
  fault.coalesce_quantum = 50 * kMicrosecond;
  plan.timer_faults.push_back(fault);
  FaultInjector injector(plan);
  for (int i = 0; i < 1000; ++i) {
    const TimeNs fire_at = 1000 + i * 777;
    const TimeNs perturbed = injector.PerturbTimerArm(0, fire_at);
    EXPECT_GE(perturbed, fire_at);
    EXPECT_LE(perturbed, fire_at + fault.max_jitter + fault.coalesce_quantum);
    // Coalescing rounds up to the quantum grid.
    EXPECT_EQ(perturbed % fault.coalesce_quantum, 0);
  }
  // kTimeNever (disarmed) passes through untouched.
  EXPECT_EQ(injector.PerturbTimerArm(0, kTimeNever), kTimeNever);
}

TEST(FaultInjector, IpiDelayLateNeverLostAndBounded) {
  FaultPlan plan;
  IpiFault fault;
  fault.drop_probability = 0.9;
  fault.max_retries = 3;
  fault.retry_interval = 50 * kMicrosecond;
  fault.max_extra_delay = 100 * kMicrosecond;
  plan.ipi_faults.push_back(fault);
  FaultInjector injector(plan);
  const TimeNs base = 2 * kMicrosecond;
  const TimeNs worst =
      base + fault.max_retries * fault.retry_interval + fault.max_extra_delay;
  for (int i = 0; i < 1000; ++i) {
    const TimeNs delay = injector.PerturbIpiDelay(0, base);
    EXPECT_GE(delay, base);   // Never early, never dropped outright.
    EXPECT_LE(delay, worst);  // Bounded retry: at most max_retries re-sends.
  }
}

TEST(FaultInjector, GuestFaultsBounded) {
  FaultPlan plan;
  GuestFault fault;
  fault.overrun_probability = 0.5;
  fault.max_overrun = 500 * kMicrosecond;
  fault.storm_probability = 0.5;
  fault.max_storm_wakeups = 4;
  plan.guest_faults.push_back(fault);
  FaultInjector injector(plan);
  int overruns = 0;
  int storms = 0;
  for (int i = 0; i < 1000; ++i) {
    const TimeNs overrun = injector.NextBurstOverrun(0);
    EXPECT_GE(overrun, 0);
    EXPECT_LE(overrun, fault.max_overrun);
    overruns += overrun > 0 ? 1 : 0;
    const int storm = injector.NextWakeupStormCount(0);
    EXPECT_GE(storm, 0);
    EXPECT_LE(storm, fault.max_storm_wakeups);
    storms += storm > 0 ? 1 : 0;
  }
  // p = 0.5 over 1000 draws: both branches must have fired.
  EXPECT_GT(overruns, 0);
  EXPECT_LT(overruns, 1000);
  EXPECT_GT(storms, 0);
  EXPECT_LT(storms, 1000);
}

TEST(FaultInjector, SameSeedSameDrawSequence) {
  const FaultPlan plan = faults::ChaosPlan(/*seed=*/123, /*intensity=*/1.0);
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 500; ++i) {
    const TimeNs t = i * 1000;
    EXPECT_EQ(a.PerturbTimerArm(t, t + 500), b.PerturbTimerArm(t, t + 500));
    EXPECT_EQ(a.PerturbIpiDelay(t, 100), b.PerturbIpiDelay(t, 100));
    EXPECT_EQ(a.NextBurstOverrun(t), b.NextBurstOverrun(t));
    EXPECT_EQ(a.NextWakeupStormCount(t), b.NextWakeupStormCount(t));
  }
}

TEST(FaultInjector, StreamsAreIndependent) {
  // Consuming one category's stream must not shift another's draws: the
  // timer stream is salted separately from the IPI stream.
  const FaultPlan plan = faults::ChaosPlan(/*seed=*/9, /*intensity=*/1.0);
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 100; ++i) {
    a.PerturbTimerArm(0, 1000);  // Burn timer draws on `a` only.
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.PerturbIpiDelay(0, 100), b.PerturbIpiDelay(0, 100));
  }
}

TEST(FaultInjector, PlannerOutcomeSplitsOneRoll) {
  FaultPlan always_fail;
  always_fail.planner.failure_probability = 1.0;
  FaultInjector fail_injector(always_fail);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(fail_injector.NextPlannerOutcome(), FaultInjector::PlannerOutcome::kFail);
  }
  FaultPlan always_timeout;
  always_timeout.planner.timeout_probability = 1.0;
  FaultInjector timeout_injector(always_timeout);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(timeout_injector.NextPlannerOutcome(),
              FaultInjector::PlannerOutcome::kTimeout);
  }
}

// --- Machine-level determinism ---------------------------------------------

std::uint64_t RunAndFingerprint(const ScenarioConfig& config, TimeNs duration) {
  Scenario scenario = BuildScenario(config);
  scenario.machine->trace().set_enabled(true);
  CpuHogWorkload hog(scenario.machine, scenario.vantage);
  hog.Start(0);
  std::vector<std::unique_ptr<StressIoWorkload>> io;
  for (std::size_t i = 1; i < scenario.vcpus.size(); ++i) {
    StressIoWorkload::Config io_config;
    io_config.seed = i + 1;
    io.push_back(std::make_unique<StressIoWorkload>(scenario.machine,
                                                    scenario.vcpus[i], io_config));
    io.back()->Start(0);
  }
  scenario.machine->Start();
  scenario.machine->RunFor(duration);
  return TraceFingerprint(*scenario.machine);
}

ScenarioConfig SmallConfig() {
  ScenarioConfig config;
  config.scheduler = SchedKind::kTableau;
  config.guest_cpus = 4;
  config.cores_per_socket = 4;
  config.capped = true;
  return config;
}

TEST(FaultDeterminism, SameSeedSameTrace) {
  ScenarioConfig config = SmallConfig();
  config.fault_plan = faults::ChaosPlan(/*seed=*/42, /*intensity=*/1.0);
  const std::uint64_t first = RunAndFingerprint(config, 100 * kMillisecond);
  const std::uint64_t second = RunAndFingerprint(config, 100 * kMillisecond);
  EXPECT_EQ(first, second);
}

TEST(FaultDeterminism, DifferentSeedDifferentTrace) {
  ScenarioConfig config = SmallConfig();
  config.fault_plan = faults::ChaosPlan(/*seed=*/42, /*intensity=*/1.0);
  const std::uint64_t first = RunAndFingerprint(config, 100 * kMillisecond);
  config.fault_plan = faults::ChaosPlan(/*seed=*/43, /*intensity=*/1.0);
  const std::uint64_t second = RunAndFingerprint(config, 100 * kMillisecond);
  EXPECT_NE(first, second);
}

TEST(FaultDeterminism, FaultsOffMatchesNoInjector) {
  // A non-empty plan whose every vector is an identity perturbation builds a
  // real injector, wires every hook — and must still reproduce the
  // no-injector trace byte for byte (the acceptance gate for the fault-free
  // goldens).
  ScenarioConfig baseline = SmallConfig();
  const std::uint64_t no_injector = RunAndFingerprint(baseline, 100 * kMillisecond);

  ScenarioConfig identity = SmallConfig();
  identity.fault_plan.overhead_spikes.push_back(OverheadSpike{});  // 1.0x.
  identity.fault_plan.timer_faults.push_back(TimerFault{});        // No jitter.
  identity.fault_plan.ipi_faults.push_back(IpiFault{});            // No drops.
  identity.fault_plan.guest_faults.push_back(GuestFault{});        // No misbehavior.
  ASSERT_FALSE(identity.fault_plan.empty());
  const std::uint64_t with_injector = RunAndFingerprint(identity, 100 * kMillisecond);
  EXPECT_EQ(no_injector, with_injector);
}

TEST(FaultDeterminism, ChaosIntensityZeroIsEmptyPlan) {
  EXPECT_TRUE(faults::ChaosPlan(7, 0.0).empty());
  EXPECT_FALSE(faults::ChaosPlan(7, 0.5).empty());
}

// --- Planner injection & degradation ---------------------------------------

std::vector<VcpuRequest> SmallRequests() {
  std::vector<VcpuRequest> requests;
  for (int i = 0; i < 4; ++i) {
    VcpuRequest request;
    request.vcpu = i;
    request.utilization = 0.25;
    request.latency_goal = 20 * kMillisecond;
    requests.push_back(request);
  }
  return requests;
}

TEST(PlannerFaults, InjectedFailureSurfacesAsKInjected) {
  FaultPlan plan;
  plan.planner.failure_probability = 1.0;
  FaultInjector injector(plan);
  PlannerConfig config;
  config.num_cpus = 4;
  config.fault_injector = &injector;
  const Planner planner(config);
  const PlanResult result = planner.Solve(PlanRequest::Full(SmallRequests()));
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.failure, PlanFailure::kInjected);
}

TEST(PlannerFaults, DegradationRetriesAdmissionFailuresOnly) {
  obs::MetricsRegistry metrics;
  PlannerConfig config;
  config.num_cpus = 1;
  config.metrics = &metrics;
  config.max_latency_degradations = 2;
  const Planner planner(config);

  // Over-utilized on one core: admission rejects, the degradation loop
  // relaxes goals twice (counted), and the failure still surfaces.
  std::vector<VcpuRequest> over;
  for (int i = 0; i < 3; ++i) {
    VcpuRequest request;
    request.vcpu = i;
    request.utilization = 0.5;
    request.latency_goal = 20 * kMillisecond;
    over.push_back(request);
  }
  const PlanResult rejected = planner.Solve(PlanRequest::Full(over));
  EXPECT_FALSE(rejected.success);
  EXPECT_EQ(rejected.failure, PlanFailure::kAdmission);
  EXPECT_EQ(metrics.GetCounter("planner.latency_degradations")->value(), 2);
  // The retries run the full pipeline inside the one solve, whose single
  // planner.plan_total_ns sample covers them.
  EXPECT_EQ(metrics.GetCounter("planner.plans")->value(), 3);
  EXPECT_EQ(metrics.GetHistogram("planner.plan_total_ns")->ToValue().count, 1u);

  // Invalid requests are not degradable: no further retries are counted.
  std::vector<VcpuRequest> invalid = over;
  invalid[0].latency_goal = -1;
  const PlanResult bad = planner.Solve(PlanRequest::Full(invalid));
  EXPECT_FALSE(bad.success);
  EXPECT_EQ(bad.failure, PlanFailure::kInvalidRequest);
  EXPECT_EQ(metrics.GetCounter("planner.latency_degradations")->value(), 2);
}

TEST(PlannerFaults, SolveSucceedsWithoutDegradationWhenFeasible) {
  PlannerConfig config;
  config.num_cpus = 4;
  config.max_latency_degradations = 3;
  const Planner planner(config);
  const PlanResult result = planner.Solve(PlanRequest::Full(SmallRequests()));
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.failure, PlanFailure::kNone);
  EXPECT_EQ(result.degradation_steps, 0);
}

// --- Replan controller ------------------------------------------------------

TEST(ReplanController, KeepsPreviousAndBacksOffExponentially) {
  FaultPlan plan;
  plan.planner.failure_probability = 1.0;
  FaultInjector injector(plan);
  PlannerConfig planner_config;
  planner_config.num_cpus = 4;
  planner_config.fault_injector = &injector;
  const Planner planner(planner_config);

  ReplanController::Config config;
  config.initial_backoff = kMillisecond;
  config.backoff_multiplier = 2.0;
  config.max_backoff = 4 * kMillisecond;
  ReplanController controller(&planner, config);

  const PlanRequest request = PlanRequest::Full(SmallRequests());
  // First failure: retry after 1 ms.
  auto outcome = controller.TryReplan(request, /*now=*/0);
  EXPECT_FALSE(outcome.installed);
  EXPECT_TRUE(outcome.kept_previous);
  EXPECT_EQ(outcome.retry_at, kMillisecond);
  EXPECT_EQ(controller.consecutive_failures(), 1);

  // Inside the backoff window: the planner is not consulted at all.
  outcome = controller.TryReplan(request, /*now=*/kMillisecond / 2);
  EXPECT_TRUE(outcome.kept_previous);
  EXPECT_EQ(outcome.retry_at, kMillisecond);
  EXPECT_EQ(controller.consecutive_failures(), 1);

  // Second and third failures: 2 ms, then 4 ms (the cap).
  outcome = controller.TryReplan(request, /*now=*/kMillisecond);
  EXPECT_EQ(outcome.retry_at, kMillisecond + 2 * kMillisecond);
  outcome = controller.TryReplan(request, /*now=*/3 * kMillisecond);
  EXPECT_EQ(outcome.retry_at, 3 * kMillisecond + 4 * kMillisecond);
  // Capped: the fourth failure waits 4 ms again, not 8.
  outcome = controller.TryReplan(request, /*now=*/7 * kMillisecond);
  EXPECT_EQ(outcome.retry_at, 7 * kMillisecond + 4 * kMillisecond);
  EXPECT_EQ(controller.consecutive_failures(), 4);
}

TEST(ReplanController, SuccessResetsBackoff) {
  PlannerConfig planner_config;
  planner_config.num_cpus = 4;
  const Planner planner(planner_config);
  ReplanController controller(&planner, ReplanController::Config{});
  const PlanRequest request = PlanRequest::Full(SmallRequests());
  const auto outcome = controller.TryReplan(request, /*now=*/0);
  EXPECT_TRUE(outcome.installed);
  EXPECT_TRUE(outcome.plan.success);
  EXPECT_FALSE(outcome.kept_previous);
  EXPECT_EQ(controller.consecutive_failures(), 0);
}

}  // namespace
}  // namespace tableau
