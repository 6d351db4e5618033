#include "src/harness/scenario.h"

#include "src/common/check.h"
#include "src/core/coschedule.h"
#include "src/obs/telemetry.h"

namespace tableau {
namespace {

// Initial table planning for a Tableau scenario via the single Solve entry
// point. Injected planner failures (when the scenario's fault plan carries
// them) are retried a bounded number of times: the initial table must exist
// for the scenario to run at all; runtime replans are where injected
// failures exercise the keep-previous-table policy.
PlanResult SolveInitialPlan(const Planner& planner, std::vector<VcpuRequest> requests) {
  PlanRequest request;
  request.requests = std::move(requests);
  PlanResult plan = planner.Solve(request);
  for (int attempt = 0;
       !plan.success && plan.failure == PlanFailure::kInjected && attempt < 16;
       ++attempt) {
    plan = planner.Solve(request);
  }
  TABLEAU_CHECK_MSG(plan.success, "planner failed: %s", plan.error.c_str());
  return plan;
}

// The harness' planner view of the scenario. Deliberately leaves
// cores_per_socket at its flat default: the paper's evaluation plans the
// box as a flat core set (NUMA-affine placement is the fleet hosts'
// opt-in), and the golden traces pin the flat layout.
PlannerConfig ScenarioPlannerConfig(const ScenarioConfig& config,
                                    const Scenario& scenario) {
  PlannerConfig planner_config;
  planner_config.num_cpus = config.guest_cpus;
  planner_config.metrics = &scenario.machine->metrics();
  planner_config.fault_injector = scenario.injector;
  planner_config.max_latency_degradations = config.max_latency_degradations;
  return planner_config;
}

}  // namespace

fleet::HostConfig HostConfigFrom(const ScenarioConfig& config) {
  fleet::HostConfig host;
  host.num_cpus = config.guest_cpus;
  host.cores_per_socket = config.cores_per_socket;
  host.slots_per_core = 0;  // The harness adds its own vCPU grid.
  host.scheduler = config.scheduler;
  host.capped = config.capped;
  host.credit_timeslice = config.credit_timeslice;
  host.switch_slip_tolerance = config.switch_slip_tolerance;
  host.max_latency_degradations = config.max_latency_degradations;
  host.costs = config.costs;
  host.fault_plan = config.fault_plan;
  host.attach_telemetry = false;
  return host;
}

Scenario BuildScenario(const ScenarioConfig& config) {
  Scenario scenario;
  // A one-host cluster; its machine owns its engine, as every fleet host's
  // does (golden traces pin its behavior).
  fleet::ClusterConfig cluster_config;
  cluster_config.num_hosts = 1;
  cluster_config.host = HostConfigFrom(config);
  scenario.cluster = std::make_unique<fleet::Cluster>(cluster_config);
  scenario.host = &scenario.cluster->host(0);
  scenario.machine = &scenario.host->machine();
  scenario.tableau = scenario.host->tableau();
  scenario.injector = scenario.host->fault_injector();
  TableauScheduler* tableau = scenario.tableau;

  const int num_vms = config.guest_cpus * config.vms_per_core;
  for (int i = 0; i < num_vms; ++i) {
    VcpuParams params;
    params.weight = 256;
    params.cap = config.capped ? config.utilization : 0.0;
    params.utilization = config.utilization;
    params.latency_goal = config.latency_goal;
    params.name = "vm" + std::to_string(i);
    scenario.vcpus.push_back(scenario.machine->AddVcpu(params));
    scenario.vm_of.push_back(i);
  }
  scenario.vantage = scenario.vcpus.empty() ? nullptr : scenario.vcpus.front();

  if (tableau != nullptr && num_vms > 0) {
    const Planner planner(ScenarioPlannerConfig(config, scenario));
    std::vector<VcpuRequest> requests;
    for (const Vcpu* vcpu : scenario.vcpus) {
      VcpuRequest request;
      request.vcpu = vcpu->id();
      request.utilization = config.utilization;
      request.latency_goal = config.latency_goal;
      requests.push_back(request);
    }
    scenario.plan = SolveInitialPlan(planner, std::move(requests));
    tableau->PushTable(std::make_shared<SchedulingTable>(scenario.plan.table));
  }
  return scenario;
}

void AttachTelemetry(Scenario& scenario, obs::Telemetry* telemetry) {
  TABLEAU_CHECK(scenario.machine != nullptr && telemetry != nullptr);
  for (const Vcpu* vcpu : scenario.vcpus) {
    telemetry->SetVcpuName(vcpu->id(), vcpu->params().name);
  }
  telemetry->SetVmOf(scenario.vm_of);
  scenario.machine->AttachTelemetry(telemetry);
}

Scenario BuildVmScenario(const ScenarioConfig& config, const std::vector<VmSpec>& vms) {
  // Build the machine and scheduler via the single-vCPU path with zero VMs;
  // the table is planned and pushed below, once.
  ScenarioConfig empty = config;
  empty.vms_per_core = 0;
  Scenario scenario = BuildScenario(empty);

  std::vector<VcpuRequest> requests;
  std::vector<CoscheduleHint> hints;
  int vm_index = 0;
  for (const VmSpec& vm : vms) {
    TABLEAU_CHECK(vm.vcpus >= 1);
    std::vector<VcpuId> members;
    for (int i = 0; i < vm.vcpus; ++i) {
      VcpuParams params;
      params.weight = 256;
      params.cap = config.capped ? vm.utilization_each : 0.0;
      params.utilization = vm.utilization_each;
      params.latency_goal = vm.latency_goal;
      params.name = "vm" + std::to_string(vm_index) + "." + std::to_string(i);
      Vcpu* vcpu = scenario.machine->AddVcpu(params);
      scenario.vcpus.push_back(vcpu);
      scenario.vm_of.push_back(vm_index);
      members.push_back(vcpu->id());
      requests.push_back(
          VcpuRequest{vcpu->id(), vm.utilization_each, vm.latency_goal});
    }
    if (vm.gang) {
      for (std::size_t i = 1; i < members.size(); ++i) {
        hints.push_back(
            CoscheduleHint{members[0], members[i], CoschedulePreference::kPrefer});
      }
    }
    ++vm_index;
  }
  scenario.vantage = scenario.vcpus.empty() ? nullptr : scenario.vcpus.front();

  if (scenario.tableau != nullptr) {
    const Planner planner(ScenarioPlannerConfig(config, scenario));
    scenario.plan = SolveInitialPlan(planner, std::move(requests));
    if (!hints.empty() && scenario.plan.method == PlanMethod::kPartitioned) {
      std::vector<std::vector<Allocation>> per_core(
          static_cast<std::size_t>(config.guest_cpus));
      for (int c = 0; c < config.guest_cpus; ++c) {
        per_core[static_cast<std::size_t>(c)] =
            scenario.plan.table.cpu(c).allocations;
      }
      CoschedulePass(per_core, scenario.plan.core_tasks, hints,
                     scenario.plan.table.length());
      scenario.plan.table =
          SchedulingTable::Build(scenario.plan.table.length(), std::move(per_core));
      TABLEAU_CHECK(scenario.plan.table.Validate().empty());
    }
    scenario.tableau->PushTable(
        std::make_shared<SchedulingTable>(scenario.plan.table));
  }
  return scenario;
}

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FnvMix(std::uint64_t hash, std::uint64_t value) {
  return (hash ^ value) * kFnvPrime;
}

}  // namespace

std::uint64_t TraceFingerprint(const Machine& machine) {
  std::uint64_t hash = 1469598103934665603ull;
  machine.trace().ForEach([&hash](const TraceRecord& record) {
    hash = FnvMix(hash, static_cast<std::uint64_t>(record.time));
    hash = FnvMix(hash, static_cast<std::uint64_t>(record.event));
    hash = FnvMix(hash, static_cast<std::uint64_t>(record.cpu));
    hash = FnvMix(hash, static_cast<std::uint64_t>(record.vcpu));
    hash = FnvMix(hash, static_cast<std::uint64_t>(record.arg));
  });
  hash = FnvMix(hash, machine.trace().total_recorded());
  return FnvMix(hash, machine.sim().events_executed());
}

std::uint64_t GoldenFingerprint(const Machine& machine) {
  const std::uint64_t hash =
      FnvMix(TraceFingerprint(machine), machine.context_switches());
  return FnvMix(hash, machine.schedule_invocations());
}

}  // namespace tableau
