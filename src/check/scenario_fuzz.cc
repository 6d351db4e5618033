#include "src/check/scenario_fuzz.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>

#include "src/check/oracles.h"
#include "src/check/table_verifier.h"
#include "src/common/check.h"
#include "src/common/parse.h"
#include "src/common/rng.h"
#include "src/core/replan.h"
#include "src/faults/fault_plan.h"
#include "src/harness/scenario.h"
#include "src/rt/hyperperiod.h"
#include "src/workloads/guest.h"
#include "src/workloads/ping.h"
#include "src/workloads/stress.h"

namespace tableau::check {
namespace {

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  x ^= x >> 29;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 32;
  return x;
}

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kHog:
      return "hog";
    case WorkloadKind::kStress:
      return "stress";
    case WorkloadKind::kStressHeavy:
      return "stress_heavy";
    case WorkloadKind::kNoise:
      return "noise";
    case WorkloadKind::kPing:
      return "ping";
  }
  return "?";
}

std::optional<WorkloadKind> WorkloadKindFromName(std::string_view name) {
  for (WorkloadKind kind : {WorkloadKind::kHog, WorkloadKind::kStress,
                            WorkloadKind::kStressHeavy, WorkloadKind::kNoise,
                            WorkloadKind::kPing}) {
    if (name == WorkloadKindName(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

std::string FormatSpec(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << "tableau-repro v1\n";
  out << "seed=" << spec.seed << "\n";
  out << "scheduler=" << SchedKindName(spec.scheduler) << "\n";
  out << "capped=" << (spec.capped ? 1 : 0) << "\n";
  out << "guest_cpus=" << spec.guest_cpus << "\n";
  out << "cores_per_socket=" << spec.cores_per_socket << "\n";
  out << "duration_ns=" << spec.duration << "\n";
  out << "fault_intensity=" << FormatDouble(spec.fault_intensity) << "\n";
  out << "fault_seed=" << spec.fault_seed << "\n";
  out << "planner_failure=" << FormatDouble(spec.planner_failure) << "\n";
  out << "replan_at_ns=" << spec.replan_at << "\n";
  out << "slip_ns=" << spec.slip_ns << "\n";
  out << "mutant=" << MutantKindName(spec.mutant) << "\n";
  out << "mutant_stride=" << spec.mutant_stride << "\n";
  for (const VmFuzzSpec& vm : spec.vms) {
    out << "vm=vcpus:" << vm.vcpus << " util:" << FormatDouble(vm.utilization)
        << " latency_ns:" << vm.latency_goal
        << " workload:" << WorkloadKindName(vm.workload)
        << " gang:" << (vm.gang ? 1 : 0) << "\n";
  }
  return out.str();
}

namespace {

// One vm= line: exactly the five name:value fields FormatSpec writes, in its
// order.
std::optional<VmFuzzSpec> ParseVm(const std::string& text) {
  static constexpr std::string_view kNames[] = {"vcpus:", "util:", "latency_ns:",
                                                "workload:", "gang:"};
  std::istringstream in(text);
  std::string fields[std::size(kNames)];
  for (std::size_t i = 0; i < std::size(kNames); ++i) {
    if (!(in >> fields[i]) || fields[i].rfind(kNames[i], 0) != 0) {
      return std::nullopt;
    }
    fields[i].erase(0, kNames[i].size());
  }
  std::string extra;
  VmFuzzSpec vm;
  const auto workload = WorkloadKindFromName(fields[3]);
  if (in >> extra || !ParseValue(fields[0], &vm.vcpus) ||
      !ParseValue(fields[1], &vm.utilization) ||
      !ParseValue(fields[2], &vm.latency_goal) || !workload ||
      !ParseValue(fields[4], &vm.gang)) {
    return std::nullopt;
  }
  vm.workload = *workload;
  return vm;
}

}  // namespace

std::optional<ScenarioSpec> ParseSpec(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "tableau-repro v1") {
    return std::nullopt;
  }
  ScenarioSpec spec;
  spec.vms.clear();
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return std::nullopt;
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    bool ok = false;
    if (key == "seed") {
      ok = ParseValue(value, &spec.seed);
    } else if (key == "scheduler") {
      const auto kind = SchedKindFromName(value);
      ok = kind.has_value();
      spec.scheduler = kind.value_or(spec.scheduler);
    } else if (key == "capped") {
      ok = ParseValue(value, &spec.capped);
    } else if (key == "guest_cpus") {
      ok = ParseValue(value, &spec.guest_cpus);
    } else if (key == "cores_per_socket") {
      ok = ParseValue(value, &spec.cores_per_socket);
    } else if (key == "duration_ns") {
      ok = ParseValue(value, &spec.duration);
    } else if (key == "fault_intensity") {
      ok = ParseValue(value, &spec.fault_intensity);
    } else if (key == "fault_seed") {
      ok = ParseValue(value, &spec.fault_seed);
    } else if (key == "planner_failure") {
      ok = ParseValue(value, &spec.planner_failure);
    } else if (key == "replan_at_ns") {
      ok = ParseValue(value, &spec.replan_at);
    } else if (key == "slip_ns") {
      ok = ParseValue(value, &spec.slip_ns);
    } else if (key == "mutant") {
      const auto kind = MutantKindFromName(value);
      ok = kind.has_value();
      spec.mutant = kind.value_or(spec.mutant);
    } else if (key == "mutant_stride") {
      ok = ParseValue(value, &spec.mutant_stride);
    } else if (key == "vm") {
      const std::optional<VmFuzzSpec> vm = ParseVm(value);
      ok = vm.has_value();
      if (ok) {
        spec.vms.push_back(*vm);
      }
    }
    if (!ok) {
      return std::nullopt;
    }
  }
  if (spec.vms.empty()) {
    return std::nullopt;
  }
  return spec;
}

namespace {

// Structural validity: the spec names a buildable machine and a scheduler
// configuration the factory accepts. Does not consult the planner.
bool SpecShapeOk(const ScenarioSpec& spec) {
  if (spec.guest_cpus < 1 || spec.cores_per_socket < 1 ||
      spec.cores_per_socket > spec.guest_cpus || spec.duration <= 0 ||
      spec.vms.empty()) {
    return false;
  }
  if (spec.scheduler == SchedKind::kCredit2 && spec.capped) {
    return false;
  }
  if (spec.scheduler == SchedKind::kRtds && !spec.capped) {
    return false;
  }
  const bool needs_mapping = spec.scheduler == SchedKind::kRtds ||
                             spec.scheduler == SchedKind::kTableau;
  for (const VmFuzzSpec& vm : spec.vms) {
    if (vm.vcpus < 1 || vm.utilization <= 0.0 || vm.latency_goal <= 0) {
      return false;
    }
    if (needs_mapping && vm.utilization < 1.0) {
      VcpuRequest request;
      request.vcpu = 0;
      request.utilization = vm.utilization;
      request.latency_goal = vm.latency_goal;
      if (!MapRequestToTask(request).has_value()) {
        return false;
      }
    }
  }
  return true;
}

// Fault-free dry-run plan: the harness TABLEAU_CHECKs planner success, so
// only admitted VM sets may reach BuildVmScenario. A rejection here is the
// planner doing its job (e.g. over-utilization, sub-threshold budgets), not
// a property violation.
bool PlanAdmits(const ScenarioSpec& spec) {
  if (spec.scheduler != SchedKind::kTableau) {
    return true;
  }
  PlannerConfig config;
  config.num_cpus = spec.guest_cpus;
  config.cores_per_socket = spec.cores_per_socket;
  const Planner planner(config);
  std::vector<VcpuRequest> requests;
  VcpuId next = 0;
  for (const VmFuzzSpec& vm : spec.vms) {
    for (int i = 0; i < vm.vcpus; ++i) {
      requests.push_back(VcpuRequest{next++, vm.utilization, vm.latency_goal});
    }
  }
  return planner.Solve(PlanRequest::Full(std::move(requests))).success;
}

}  // namespace

bool FeasibleSpec(const ScenarioSpec& spec) {
  return SpecShapeOk(spec) && PlanAdmits(spec);
}

namespace {

ScenarioSpec DrawSpec(std::uint64_t seed, int attempt) {
  Rng rng(Mix(seed, static_cast<std::uint64_t>(attempt)));
  ScenarioSpec spec;
  spec.seed = seed;
  spec.scheduler = kAllSchedKinds[rng.UniformInt(0, 4)];
  switch (spec.scheduler) {
    case SchedKind::kCredit2:
      spec.capped = false;
      break;
    case SchedKind::kRtds:
      spec.capped = true;
      break;
    default:
      spec.capped = rng.UniformDouble() < 0.5;
      break;
  }
  spec.guest_cpus = static_cast<int>(rng.UniformInt(1, 4));
  spec.cores_per_socket =
      spec.guest_cpus <= 2 ? spec.guest_cpus : (spec.guest_cpus + 1) / 2;
  spec.duration = rng.UniformInt(4, 12) * 5 * kMillisecond;
  spec.fault_seed = Mix(seed, 0x5eed);
  if (rng.UniformDouble() < 0.5) {
    spec.fault_intensity = 0.05 * rng.UniformInt(1, 10);
  }
  const bool tableau = spec.scheduler == SchedKind::kTableau;
  if (tableau && rng.UniformDouble() < 0.35) {
    spec.replan_at = spec.duration / 2;
    if (rng.UniformDouble() < 0.5) {
      spec.planner_failure = 0.25;
    }
  }
  if (tableau && rng.UniformDouble() < 0.35) {
    spec.slip_ns = 200 * kMicrosecond * rng.UniformInt(1, 5);
  }
  static constexpr TimeNs kLatencyChoices[] = {
      5 * kMillisecond, 10 * kMillisecond, 20 * kMillisecond, 40 * kMillisecond,
      80 * kMillisecond};
  const int max_vms = std::min(6, 2 * spec.guest_cpus);
  const int num_vms = static_cast<int>(rng.UniformInt(1, max_vms));
  for (int i = 0; i < num_vms; ++i) {
    VmFuzzSpec vm;
    vm.vcpus = rng.UniformDouble() < 0.25 ? 2 : 1;
    vm.gang = vm.vcpus > 1 && rng.UniformDouble() < 0.5;
    vm.utilization = 0.05 * rng.UniformInt(1, 8);
    vm.latency_goal = kLatencyChoices[rng.UniformInt(0, 4)];
    vm.workload = static_cast<WorkloadKind>(rng.UniformInt(0, 4));
    spec.vms.push_back(vm);
  }
  return spec;
}

}  // namespace

ScenarioSpec GenerateSpec(std::uint64_t seed) {
  for (int attempt = 0; attempt < 32; ++attempt) {
    ScenarioSpec spec = DrawSpec(seed, attempt);
    if (FeasibleSpec(spec)) {
      return spec;
    }
  }
  // Trivially feasible fallback (should be unreachable in practice).
  ScenarioSpec fallback;
  fallback.seed = seed;
  fallback.scheduler = SchedKind::kCredit;
  fallback.guest_cpus = 1;
  fallback.cores_per_socket = 1;
  fallback.duration = 20 * kMillisecond;
  fallback.vms.push_back(VmFuzzSpec{});
  return fallback;
}

CheckOutcome RunCheckedScenario(const ScenarioSpec& spec) {
  CheckOutcome outcome;
  if (!SpecShapeOk(spec)) {
    outcome.violations.push_back("spec: malformed scenario spec");
    return outcome;
  }
  if (!PlanAdmits(spec)) {
    // Correctly rejected at admission: nothing runs, nothing to check. (A
    // reproducer for a since-fixed planner bug replays as clean this way.)
    return outcome;
  }

  std::optional<ScopedSchedulerMutation> mutation;
  if (spec.mutant != MutantKind::kNone) {
    mutation.emplace(spec.scheduler, spec.mutant, spec.mutant_stride);
  }

  ScenarioConfig config;
  config.scheduler = spec.scheduler;
  config.capped = spec.capped;
  config.guest_cpus = spec.guest_cpus;
  config.cores_per_socket = spec.cores_per_socket;
  config.fault_plan = faults::ChaosPlan(spec.fault_seed, spec.fault_intensity);
  config.fault_plan.seed = spec.fault_seed;
  config.fault_plan.planner.failure_probability = spec.planner_failure;
  config.switch_slip_tolerance = spec.slip_ns == 0 ? kTimeNever : spec.slip_ns;

  std::vector<VmSpec> vms;
  for (const VmFuzzSpec& vm : spec.vms) {
    VmSpec built;
    built.vcpus = vm.vcpus;
    built.utilization_each = vm.utilization;
    built.latency_goal = vm.latency_goal;
    built.gang = vm.gang;
    vms.push_back(built);
  }
  Scenario scenario = BuildVmScenario(config, vms);

  PlannerConfig verify_config;
  verify_config.num_cpus = spec.guest_cpus;
  verify_config.cores_per_socket = spec.cores_per_socket;
  if (scenario.tableau != nullptr) {
    for (std::string& violation : VerifyPlan(scenario.plan, verify_config)) {
      outcome.violations.push_back("plan: " + violation);
    }
  }

  // Per-vCPU workloads (the fuzz_test mix). Instances live past machine run.
  std::vector<std::unique_ptr<CpuHogWorkload>> hogs;
  std::vector<std::unique_ptr<StressIoWorkload>> stress;
  std::vector<std::unique_ptr<WorkQueueGuest>> guests;
  std::vector<std::unique_ptr<SystemNoiseWorkload>> noise;
  std::vector<std::unique_ptr<PingTraffic>> pings;
  for (std::size_t i = 0; i < scenario.vcpus.size(); ++i) {
    Vcpu* vcpu = scenario.vcpus[i];
    const VmFuzzSpec& vm = spec.vms[static_cast<std::size_t>(scenario.vm_of[i])];
    const std::uint64_t workload_seed = spec.seed * 1000 + i;
    switch (vm.workload) {
      case WorkloadKind::kHog:
        hogs.push_back(
            std::make_unique<CpuHogWorkload>(scenario.machine, vcpu));
        hogs.back()->Start(0);
        break;
      case WorkloadKind::kStress:
      case WorkloadKind::kStressHeavy: {
        StressIoWorkload::Config stress_config;
        if (vm.workload == WorkloadKind::kStressHeavy) {
          stress_config = StressIoWorkload::Config::Heavy();
        }
        stress_config.seed = workload_seed;
        stress.push_back(std::make_unique<StressIoWorkload>(
            scenario.machine, vcpu, stress_config));
        stress.back()->Start(0);
        break;
      }
      case WorkloadKind::kNoise: {
        guests.push_back(
            std::make_unique<WorkQueueGuest>(scenario.machine, vcpu));
        SystemNoiseWorkload::Config noise_config;
        noise_config.seed = workload_seed;
        noise.push_back(std::make_unique<SystemNoiseWorkload>(
            scenario.machine, guests.back().get(), noise_config));
        noise.back()->Start(0);
        break;
      }
      case WorkloadKind::kPing: {
        guests.push_back(
            std::make_unique<WorkQueueGuest>(scenario.machine, vcpu));
        PingTraffic::Config ping_config;
        ping_config.threads = 2;
        ping_config.pings_per_thread = 200;
        ping_config.max_spacing = 8 * kMillisecond;
        ping_config.seed = workload_seed;
        pings.push_back(std::make_unique<PingTraffic>(
            scenario.machine, guests.back().get(), ping_config));
        pings.back()->Start(0);
        break;
      }
    }
  }

  OracleConfig oracle_config;
  oracle_config.spec.kind = spec.scheduler;
  oracle_config.spec.capped = spec.capped;
  oracle_config.spec.credit_timeslice = config.credit_timeslice;
  oracle_config.spec.switch_slip_tolerance = config.switch_slip_tolerance;
  oracle_config.num_cpus = spec.guest_cpus;
  for (const Vcpu* vcpu : scenario.vcpus) {
    if (oracle_config.params.size() <= static_cast<std::size_t>(vcpu->id())) {
      oracle_config.params.resize(static_cast<std::size_t>(vcpu->id()) + 1);
    }
    oracle_config.params[static_cast<std::size_t>(vcpu->id())] = vcpu->params();
  }
  oracle_config.fault_plan = config.fault_plan;
  if (scenario.tableau != nullptr) {
    oracle_config.tables.push_back(
        std::make_shared<SchedulingTable>(scenario.plan.table));
  }
  std::unique_ptr<SchedulerOracle> oracle = MakeOracle(std::move(oracle_config));

  scenario.machine->trace().set_enabled(true);
  scenario.machine->Start();

  std::optional<Planner> replanner;
  std::optional<ReplanController> controller;
  bool replanned = spec.replan_at <= 0 || scenario.tableau == nullptr;
  const TimeNs chunk = 5 * kMillisecond;
  TimeNs now = 0;
  std::uint64_t consumed_total = 0;
  while (now < spec.duration) {
    const TimeNs step = std::min(chunk, spec.duration - now);
    scenario.machine->RunFor(step);
    now += step;

    const TraceBuffer& trace = scenario.machine->trace();
    if (trace.total_recorded() - consumed_total > trace.size()) {
      outcome.violations.push_back(
          "trace: ring overflow mid-chunk; oracle would miss records");
    }
    trace.ForEach([&](const TraceRecord& record) { oracle->Consume(record); });
    consumed_total = trace.total_recorded();
    scenario.machine->trace().Clear();

    if (!replanned && now >= spec.replan_at) {
      if (!controller) {
        PlannerConfig replan_config = verify_config;
        replan_config.fault_injector = scenario.injector;
        replan_config.metrics = &scenario.machine->metrics();
        replanner.emplace(replan_config);
        controller.emplace(&*replanner, ReplanController::Config{});
        controller->AttachMetrics(&scenario.machine->metrics());
      }
      ReplanController::Outcome replan =
          controller->TryReplan(PlanRequest::Full(scenario.plan.requests), now);
      if (replan.installed) {
        for (std::string& violation : VerifyPlan(replan.plan, verify_config)) {
          outcome.violations.push_back("replan: " + violation);
        }
        auto table = std::make_shared<SchedulingTable>(replan.plan.table);
        oracle->AddTable(table);
        scenario.tableau->PushTable(std::move(table));
        replanned = true;
      }
    }
  }
  oracle->Finish(now);

  for (const std::string& violation : oracle->violations()) {
    outcome.violations.push_back(violation);
  }
  outcome.records = oracle->records_consumed();
  return outcome;
}

std::string CategoryOf(const std::vector<std::string>& violations) {
  if (violations.empty()) {
    return "";
  }
  const std::string& first = violations.front();
  std::size_t cut = 0;
  while (cut < first.size() && !(first[cut] >= '0' && first[cut] <= '9')) {
    ++cut;
  }
  std::string category = first.substr(0, cut);
  while (!category.empty() && category.back() == ' ') {
    category.pop_back();
  }
  if (category.empty()) {
    category = first.substr(0, std::min<std::size_t>(16, first.size()));
  }
  return category;
}

namespace {

std::vector<ScenarioSpec> ShrinkCandidates(const ScenarioSpec& spec) {
  std::vector<ScenarioSpec> candidates;
  // Biggest reductions first: whole VMs, then per-VM simplifications, then
  // knobs, then time and space.
  if (spec.vms.size() > 1) {
    for (std::size_t i = 0; i < spec.vms.size(); ++i) {
      ScenarioSpec candidate = spec;
      candidate.vms.erase(candidate.vms.begin() + static_cast<std::ptrdiff_t>(i));
      candidates.push_back(std::move(candidate));
    }
  }
  for (std::size_t i = 0; i < spec.vms.size(); ++i) {
    if (spec.vms[i].vcpus > 1) {
      ScenarioSpec candidate = spec;
      candidate.vms[i].vcpus = 1;
      candidate.vms[i].gang = false;
      candidates.push_back(std::move(candidate));
    }
    if (spec.vms[i].workload != WorkloadKind::kHog) {
      ScenarioSpec candidate = spec;
      candidate.vms[i].workload = WorkloadKind::kHog;
      candidates.push_back(std::move(candidate));
    }
    if (spec.vms[i].gang) {
      ScenarioSpec candidate = spec;
      candidate.vms[i].gang = false;
      candidates.push_back(std::move(candidate));
    }
  }
  if (spec.fault_intensity > 0.0) {
    ScenarioSpec candidate = spec;
    candidate.fault_intensity = 0.0;
    candidates.push_back(std::move(candidate));
  }
  if (spec.planner_failure > 0.0) {
    ScenarioSpec candidate = spec;
    candidate.planner_failure = 0.0;
    candidates.push_back(std::move(candidate));
  }
  if (spec.replan_at > 0) {
    ScenarioSpec candidate = spec;
    candidate.replan_at = 0;
    candidate.planner_failure = 0.0;
    candidates.push_back(std::move(candidate));
  }
  if (spec.slip_ns > 0) {
    ScenarioSpec candidate = spec;
    candidate.slip_ns = 0;
    candidates.push_back(std::move(candidate));
  }
  if (spec.duration > 10 * kMillisecond) {
    ScenarioSpec candidate = spec;
    candidate.duration = spec.duration / 2;
    candidates.push_back(std::move(candidate));
  }
  if (spec.guest_cpus > 1) {
    ScenarioSpec candidate = spec;
    candidate.guest_cpus = spec.guest_cpus - 1;
    candidate.cores_per_socket =
        std::min(candidate.cores_per_socket, candidate.guest_cpus);
    candidates.push_back(std::move(candidate));
  }
  return candidates;
}

}  // namespace

ShrinkResult<ScenarioSpec> Shrink(const ScenarioSpec& spec,
                                  const std::string& category) {
  if (category.empty()) {
    return {spec, 0};
  }
  return GreedyShrink(
      spec, ShrinkCandidates, FeasibleSpec,
      [&category](const ScenarioSpec& candidate) {
        return CategoryOf(RunCheckedScenario(candidate).violations) == category;
      },
      /*max_runs=*/200);
}

}  // namespace tableau::check
