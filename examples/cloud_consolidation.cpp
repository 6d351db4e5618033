// Cloud-consolidation scenario: a host running price-differentiated VM tiers
// (the provisioning model of Sec. 5), with VMs arriving and departing at
// runtime. Each reconfiguration invokes the planner and pushes a new table
// to the running dispatcher using the lock-free, time-synchronized switch
// protocol — guest service continues undisturbed throughout.
//
//   $ ./examples/cloud_consolidation
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "src/core/planner.h"
#include "src/harness/scenario.h"
#include "src/workloads/stress.h"

using namespace tableau;

namespace {

struct Tier {
  const char* name;
  double utilization;
  TimeNs latency_goal;
};

constexpr Tier kGold{"gold", 0.50, 5 * kMillisecond};
constexpr Tier kSilver{"silver", 0.25, 20 * kMillisecond};
constexpr Tier kBronze{"bronze", 0.10, 100 * kMillisecond};

struct Host {
  explicit Host(int cpus) : cpus(cpus) {
    TableauDispatcher::Config dispatcher;
    dispatcher.work_conserving = true;
    auto owned = std::make_unique<TableauScheduler>(dispatcher);
    scheduler = owned.get();
    MachineConfig machine_config;
    machine_config.num_cpus = cpus;
    machine_config.cores_per_socket = cpus / 2;
    machine = std::make_unique<Machine>(machine_config, std::move(owned));
  }

  // Admits a VM of the given tier; returns false if the planner rejects the
  // resulting configuration (admission control).
  bool Admit(const Tier& tier) {
    const VcpuId id = next_id++;
    pending.push_back({id, tier});
    if (!Replan()) {
      pending.pop_back();
      next_id--;
      return false;
    }
    // Materialize the vCPU and give it work.
    VcpuParams params;
    params.utilization = tier.utilization;
    params.latency_goal = tier.latency_goal;
    params.name = std::string(tier.name) + "-" + std::to_string(id);
    Vcpu* vcpu = machine->AddVcpu(params);
    StressIoWorkload::Config stress;
    stress.seed = static_cast<std::uint64_t>(id) + 1;
    workloads.push_back(std::make_unique<StressIoWorkload>(machine.get(), vcpu, stress));
    workloads.back()->Start(machine->Now());
    return true;
  }

  bool Replan() {
    PlannerConfig config;
    config.num_cpus = cpus;
    const Planner planner(config);
    std::vector<VcpuRequest> requests;
    for (const auto& [id, tier] : pending) {
      requests.push_back(VcpuRequest{id, tier.utilization, tier.latency_goal});
    }
    PlanResult plan = planner.Solve(PlanRequest::Full(requests));
    if (!plan.success) {
      std::printf("  admission REJECTED: %s\n", plan.error.c_str());
      return false;
    }
    std::printf("  planned %zu vCPUs (%s); table switch pending at %s\n",
                requests.size(), PlanMethodName(plan.method),
                FormatDuration(machine->Now()).c_str());
    scheduler->PushTable(std::make_shared<SchedulingTable>(std::move(plan.table)));
    last_plan = std::move(plan.vcpus);
    return true;
  }

  const int cpus;
  std::unique_ptr<Machine> machine;
  TableauScheduler* scheduler = nullptr;
  VcpuId next_id = 0;
  std::vector<std::pair<VcpuId, Tier>> pending;
  std::vector<std::unique_ptr<StressIoWorkload>> workloads;
  std::vector<VcpuPlan> last_plan;
};

}  // namespace

int main() {
  Host host(8);

  std::printf("== boot: admit 2 gold + 8 silver + 10 bronze (utilization %.2f/8 cores)\n",
              2 * 0.5 + 8 * 0.25 + 10 * 0.10);
  for (int i = 0; i < 2; ++i) {
    host.Admit(kGold);
  }
  for (int i = 0; i < 8; ++i) {
    host.Admit(kSilver);
  }
  for (int i = 0; i < 10; ++i) {
    host.Admit(kBronze);
  }
  host.machine->Start();
  host.machine->RunFor(kSecond);

  std::printf("\n== t=1s: a burst of 12 more bronze tenants arrives\n");
  int admitted = 0;
  for (int i = 0; i < 12; ++i) {
    if (host.Admit(kBronze)) {
      ++admitted;
    }
  }
  std::printf("  admitted %d of 12\n", admitted);
  host.machine->RunFor(kSecond);

  std::printf("\n== t=2s: try to admit 8 gold tenants (should hit admission control)\n");
  int gold_admitted = 0;
  for (int i = 0; i < 8; ++i) {
    if (host.Admit(kGold)) {
      ++gold_admitted;
    }
  }
  std::printf("  admitted %d of 8 gold\n", gold_admitted);
  host.machine->RunFor(2 * kSecond);

  std::printf("\n== final guarantees vs. delivery (4s wall, shares in %% of one core)\n");
  std::printf("%-12s %10s %10s %12s %12s\n", "vm", "reserved", "received", "goal",
              "table gap");
  std::map<VcpuId, const VcpuPlan*> plans;
  for (const VcpuPlan& plan : host.last_plan) {
    plans[plan.vcpu] = &plan;
  }
  for (const auto& vcpu : host.machine->vcpus()) {
    const VcpuPlan* plan = plans.at(vcpu->id());
    std::printf("%-12s %9.1f%% %9.1f%% %12s %12s\n", vcpu->params().name.c_str(),
                100.0 * vcpu->params().utilization,
                100.0 * static_cast<double>(vcpu->total_service()) /
                    static_cast<double>(host.machine->Now()),
                FormatDuration(plan->latency_goal).c_str(),
                FormatDuration(plan->blackout_bound).c_str());
  }
  std::printf("\n(received can exceed reserved: the second-level scheduler hands out\n"
              "idle cycles; it never falls below reserved while the VM has demand)\n");
  return 0;
}
