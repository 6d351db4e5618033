#include "src/core/planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "src/common/check.h"
#include "src/rt/admission.h"
#include "src/rt/cd_split.h"
#include "src/rt/dpfair.h"
#include "src/rt/edf_sim.h"
#include "src/core/peephole.h"
#include "src/rt/partition.h"

namespace tableau {
namespace {

PlanResult Fail(PlanFailure failure, std::string error) {
  PlanResult result;
  result.success = false;
  result.failure = failure;
  result.error = std::move(error);
  return result;
}

// Planner phase timings use wall clock (the planner is control-plane code
// running on real threads, not the DES): steady_clock so suspends/adjustments
// cannot produce negative durations.
std::int64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Records the enclosing scope's wall-clock duration into `hist` on
// destruction; a null histogram disables it (and skips the clock reads).
class PhaseTimer {
 public:
  explicit PhaseTimer(obs::LatencyHistogram* hist)
      : hist_(hist), start_(hist != nullptr ? WallNowNs() : 0) {}
  ~PhaseTimer() {
    if (hist_ != nullptr) {
      hist_->Record(WallNowNs() - start_);
    }
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  obs::LatencyHistogram* hist_;
  std::int64_t start_;
};

// Handles for the planner.* metrics; all null when no registry is configured.
struct PhaseMetrics {
  obs::LatencyHistogram* partition = nullptr;
  obs::LatencyHistogram* edf_core_sim = nullptr;
  obs::LatencyHistogram* cd_split = nullptr;
  obs::LatencyHistogram* cluster = nullptr;
  obs::LatencyHistogram* coalesce = nullptr;
  obs::LatencyHistogram* table_build = nullptr;
  obs::LatencyHistogram* validate = nullptr;
  obs::LatencyHistogram* plan_total = nullptr;
  obs::Counter* plans = nullptr;
  obs::Counter* incremental_plans = nullptr;
  // Admission fast-path ladder: decisions resolved per rung.
  obs::Counter* admission_utilization = nullptr;
  obs::Counter* admission_density = nullptr;
  obs::Counter* admission_qpa = nullptr;
  obs::Counter* admission_simulation = nullptr;
};

PhaseMetrics ResolvePhaseMetrics(obs::MetricsRegistry* registry,
                                 bool wall_timings) {
  PhaseMetrics m;
  if (registry == nullptr) {
    return m;
  }
  if (wall_timings) {
    m.partition = registry->GetHistogram("planner.partition_ns");
    m.edf_core_sim = registry->GetHistogram("planner.edf_core_sim_ns");
    m.cd_split = registry->GetHistogram("planner.cd_split_ns");
    m.cluster = registry->GetHistogram("planner.cluster_ns");
    m.coalesce = registry->GetHistogram("planner.coalesce_ns");
    m.table_build = registry->GetHistogram("planner.table_build_ns");
    m.validate = registry->GetHistogram("planner.validate_ns");
    m.plan_total = registry->GetHistogram("planner.plan_total_ns");
  }
  m.plans = registry->GetCounter("planner.plans");
  m.incremental_plans = registry->GetCounter("planner.incremental_plans");
  m.admission_utilization = registry->GetCounter("planner.admission.utilization");
  m.admission_density = registry->GetCounter("planner.admission.density");
  m.admission_qpa = registry->GetCounter("planner.admission.qpa");
  m.admission_simulation = registry->GetCounter("planner.admission.simulation");
  return m;
}

AdmissionBreakdown TallyToBreakdown(const AdmissionTally& tally) {
  AdmissionBreakdown b;
  b.utilization = tally.Count(AdmissionRung::kUtilization);
  b.density = tally.Count(AdmissionRung::kDensity);
  b.qpa = tally.Count(AdmissionRung::kQpa);
  b.simulation = tally.Count(AdmissionRung::kSimulation);
  return b;
}

// Folds a solve's ladder breakdown into the planner.admission.* counters.
void ExportAdmissionMetrics(const PhaseMetrics& pm, const AdmissionBreakdown& b) {
  if (pm.admission_utilization == nullptr) {
    return;
  }
  pm.admission_utilization->Increment(b.utilization);
  pm.admission_density->Increment(b.density);
  pm.admission_qpa->Increment(b.qpa);
  pm.admission_simulation->Increment(b.simulation);
}

// Accounting for a core's EDF table materialization: which ladder rung
// already decided the set schedulable. kSimulation means only the simulation
// itself (which runs regardless, to produce the table) could tell.
void TallyCoreAdmission(const std::vector<PeriodicTask>& tasks, TimeNs hyperperiod,
                        AdmissionTally& tally) {
  if (const std::optional<AdmissionDecision> analytic =
          AdmitCoreAnalytic(tasks, hyperperiod)) {
    tally.Record(analytic->rung);
  } else {
    tally.Record(AdmissionRung::kSimulation);
  }
}

// Solve() stretches every latency goal by this factor per degradation step.
constexpr double kLatencyDegradationFactor = 2.0;

// The request set a solve plans for: a full solve's requests, or a delta's
// previous requests minus the departed vCPUs, plus the added ones.
std::vector<VcpuRequest> MergedRequests(const PlanRequest& request) {
  if (request.previous == nullptr) {
    return request.requests;
  }
  const std::set<VcpuId> departing(request.departed.begin(), request.departed.end());
  std::vector<VcpuRequest> merged;
  for (const VcpuRequest& r : request.previous->requests) {
    if (departing.find(r.vcpu) == departing.end()) {
      merged.push_back(r);
    }
  }
  merged.insert(merged.end(), request.added.begin(), request.added.end());
  return merged;
}

// The socket a request is pinned to, or -1 when it may run anywhere (no
// affinity, or cores_per_socket == 0: a flat machine).
int RequiredSocket(const VcpuRequest& request, const PlannerConfig& config) {
  return config.cores_per_socket > 0 && request.socket_affinity >= 0 ? request.socket_affinity
                                                                     : -1;
}

// The request check both solve shapes run over the whole request set. A
// utilization outside (0, 1] (NaN included), a non-positive latency goal, a
// duplicate vCPU id, or a shared-core vCPU pinned to a socket the shared
// cores do not reach is malformed (kInvalidRequest). Returns the error, or an
// empty string.
std::string CheckRequests(const std::vector<VcpuRequest>& requests,
                          const PlannerConfig& config) {
  std::set<VcpuId> seen;
  int dedicated = 0;
  for (const VcpuRequest& request : requests) {
    if (!(request.utilization > 0.0 && request.utilization <= 1.0)) {
      return "vCPU " + std::to_string(request.vcpu) + ": utilization out of (0, 1]";
    }
    if (request.latency_goal <= 0) {
      return "vCPU " + std::to_string(request.vcpu) + ": non-positive latency goal";
    }
    if (!seen.insert(request.vcpu).second) {
      return "duplicate vCPU id " + std::to_string(request.vcpu);
    }
    dedicated += request.utilization >= 1.0 ? 1 : 0;
  }
  // Dedicated vCPUs take the tail cores, so sockets span the shared cores.
  // With no shared core left, PlanFull rejects the set for lack of cores.
  const int shared_cores = config.num_cpus - dedicated;
  if (config.cores_per_socket > 0 && shared_cores > 0) {
    const int sockets = (shared_cores + config.cores_per_socket - 1) / config.cores_per_socket;
    for (const VcpuRequest& request : requests) {
      if (request.utilization < 1.0 && RequiredSocket(request, config) >= sockets) {
        return "vCPU " + std::to_string(request.vcpu) + ": socket affinity out of range";
      }
    }
  }
  return "";
}

// The (U, L) -> periodic task mapping of a shared-core request, with its
// admission rule. Returns the kAdmission error, or an empty string with
// *mapping filled in.
std::string MapSharedRequest(const VcpuRequest& request, TimeNs coalesce_threshold,
                             TaskMapping* mapping) {
  const std::optional<TaskMapping> mapped = MapRequestToTask(request);
  if (!mapped.has_value()) {
    return "vCPU " + std::to_string(request.vcpu) + ": unmappable reservation";
  }
  // A budget below the coalesce threshold cannot be delivered: every one of
  // its allocations is a sub-threshold sliver, so post-processing would
  // donate the entire reservation away and the vCPU would starve despite a
  // "successful" plan. Reject at admission; the stepwise latency-goal
  // degradation (larger T => larger C) can rescue the request.
  if (mapped->task.cost < coalesce_threshold) {
    return "vCPU " + std::to_string(request.vcpu) + ": budget " +
           std::to_string(mapped->task.cost) + " ns below the coalesce threshold " +
           std::to_string(coalesce_threshold) +
           " ns; the whole reservation would be coalesced away";
  }
  *mapping = *mapped;
  return "";
}

// True if ceil-rounding put `task`'s budget above the exact U*T, so a 1 ns
// shave costs the vCPU less than a nanosecond of its share.
bool RoundedUp(const PeriodicTask& task, double utilization) {
  return static_cast<double>(task.cost) > utilization * static_cast<double>(task.period);
}

// Points a shared-core vCPU's plan at its (possibly shaved) task.
void SetTask(VcpuPlan& plan, const PeriodicTask& task) {
  plan.cost = task.cost;
  plan.period = task.period;
  plan.effective_utilization = task.Utilization();
  plan.blackout_bound = 2 * (task.period - task.cost);
}

VcpuPlan SharedPlan(const VcpuRequest& request, const TaskMapping& mapping,
                    const PeriodicTask& task) {
  VcpuPlan plan;
  plan.vcpu = request.vcpu;
  plan.requested_utilization = request.utilization;
  plan.latency_goal = request.latency_goal;
  SetTask(plan, task);
  plan.latency_goal_met =
      mapping.latency_goal_met && plan.blackout_bound <= request.latency_goal;
  return plan;
}

// The pipeline's tail, shared by both solve shapes. `result` arrives with its
// method, vCPU plans, core tasks and requests; `per_core` with the
// allocations earlier stages laid out (clustered and dedicated cores). Runs
// the per-core EDF simulation of the fresh cores that have tasks, peephole,
// coalescing, table build and validation, and the split/donation accounting
// of the vCPUs on fresh cores. A core not in `fresh` keeps `previous`'s whole
// per-pCPU table (allocations, slice table and local vCPUs), so only fresh
// cores are built, and the plans of its vCPUs are kept as they are: a
// carried core is a whole core of a partitioned plan, so no vCPU straddles a
// fresh and a carried core.
void FinishPlan(const PlannerConfig& config, const PhaseMetrics& pm,
                const std::vector<bool>& fresh, const SchedulingTable* previous,
                std::vector<std::vector<Allocation>> per_core, AdmissionTally& tally,
                PlanResult& result) {
  const TimeNs h = kHyperperiodNs;
  const std::vector<std::vector<PeriodicTask>>& core_tasks = result.core_tasks;
  for (std::size_t core = 0; core < core_tasks.size(); ++core) {
    if (!fresh[core] || core_tasks[core].empty()) {
      continue;
    }
    // On the partitioned path this is the core's admission decision; record
    // which ladder rung could already settle it (semi-partitioned sets were
    // admitted by the C=D probes, which tally their own decisions).
    if (result.method == PlanMethod::kPartitioned) {
      TallyCoreAdmission(core_tasks[core], h, tally);
    }
    EdfSimResult sim;
    {
      PhaseTimer timer(pm.edf_core_sim);
      sim = SimulateEdf(core_tasks[core], h);
    }
    TABLEAU_CHECK_MSG(sim.schedulable, "EDF simulation failed on core %d for vCPU %d",
                      static_cast<int>(core), sim.missed_vcpu);
    per_core[core] = std::move(sim.allocations);
  }

  // --- Post-processing: peephole, coalescing and table construction ---
  // Carried cores are still empty here, so both passes skip them.
  if (config.peephole_pass) {
    PeepholeOptimize(per_core, core_tasks);
  }
  std::vector<std::pair<VcpuId, TimeNs>> donated;
  {
    PhaseTimer timer(pm.coalesce);
    per_core = CoalesceAllocations(std::move(per_core), config.coalesce_threshold, &donated);
  }
  {
    PhaseTimer timer(pm.table_build);
    result.table = previous == nullptr ? SchedulingTable::Build(h, std::move(per_core))
                                       : previous->Rebuild(fresh, std::move(per_core));
  }
  std::string violation;
  {
    PhaseTimer timer(pm.validate);
    violation = result.table.Validate();
  }
  TABLEAU_CHECK_MSG(violation.empty(), "planner produced invalid table: %s",
                    violation.c_str());

  std::map<VcpuId, int> fresh_cores_of;
  std::vector<VcpuId> carried;
  result.dirty_cores.clear();
  for (int c = 0; c < result.table.num_cpus(); ++c) {
    const auto core = static_cast<std::size_t>(c);
    if (fresh[core]) {
      result.dirty_cores.push_back(c);
      for (const VcpuId vcpu : result.table.cpu(c).local_vcpus) {
        ++fresh_cores_of[vcpu];
      }
    } else {
      for (const PeriodicTask& task : core_tasks[core]) {
        carried.push_back(task.vcpu);
      }
    }
  }
  std::sort(carried.begin(), carried.end());
  std::map<VcpuId, TimeNs> donated_by_vcpu;
  for (const auto& [vcpu, amount] : donated) {
    donated_by_vcpu[vcpu] += amount;
  }
  for (VcpuPlan& plan : result.vcpus) {
    if (std::binary_search(carried.begin(), carried.end(), plan.vcpu)) {
      continue;
    }
    const auto cores = fresh_cores_of.find(plan.vcpu);
    plan.split = cores != fresh_cores_of.end() && cores->second > 1;
    const auto it = donated_by_vcpu.find(plan.vcpu);
    plan.donated_ns = it == donated_by_vcpu.end() ? 0 : it->second;
  }
  result.success = true;
  result.admission = TallyToBreakdown(tally);
  ExportAdmissionMetrics(pm, result.admission);
}

}  // namespace

Planner::Planner(PlannerConfig config) : config_(config) {
  TABLEAU_CHECK(config_.num_cpus > 0);
}

PlanResult Planner::PlanFull(const std::vector<VcpuRequest>& requests) const {
  const TimeNs h = kHyperperiodNs;
  const PhaseMetrics pm = ResolvePhaseMetrics(config_.metrics, config_.wall_timings);
  PhaseTimer total_timer(pm.plan_total);
  if (pm.plans != nullptr) {
    pm.plans->Increment();
  }
  AdmissionTally admission_tally;

  if (const std::string error = CheckRequests(requests, config_); !error.empty()) {
    return Fail(PlanFailure::kInvalidRequest, error);
  }

  // --- Dedicated cores for U == 1 vCPUs ---
  std::vector<VcpuId> dedicated;
  std::vector<VcpuRequest> shared;
  for (const VcpuRequest& request : requests) {
    if (request.utilization >= 1.0) {
      dedicated.push_back(request.vcpu);
    } else {
      shared.push_back(request);
    }
  }
  const int shared_cores = config_.num_cpus - static_cast<int>(dedicated.size());
  if (shared_cores < 0 || (shared_cores == 0 && !shared.empty())) {
    return Fail(PlanFailure::kAdmission,
                "not enough cores: " + std::to_string(dedicated.size()) +
                " dedicated vCPUs on " + std::to_string(config_.num_cpus) + " cores");
  }

  // --- Map (U, L) reservations to periodic tasks ---
  PlanResult result;
  std::vector<PeriodicTask> tasks;
  for (const VcpuRequest& request : shared) {
    TaskMapping mapping;
    if (const std::string error =
            MapSharedRequest(request, config_.coalesce_threshold, &mapping);
        !error.empty()) {
      return Fail(PlanFailure::kAdmission, error);
    }
    tasks.push_back(mapping.task);
    result.vcpus.push_back(SharedPlan(request, mapping, mapping.task));
  }
  for (const VcpuId vcpu : dedicated) {
    VcpuPlan plan;
    plan.vcpu = vcpu;
    plan.requested_utilization = 1.0;
    plan.effective_utilization = 1.0;
    plan.dedicated = true;
    plan.latency_goal_met = true;
    result.vcpus.push_back(plan);
  }

  // --- Admission control ---
  // C = ceil(U*T) over-reserves by up to (1 - 1ns/T) per period, so an
  // exactly fully packed machine (e.g. the fair-share U = m/n setup) can
  // exceed capacity by a few ns. Shave 1 ns from rounded-up budgets (largest
  // recovery first) before rejecting: the affected vCPUs still receive their
  // share up to nanosecond quantization.
  TimeNs total_demand = TotalDemand(tasks, h);
  const TimeNs capacity = static_cast<TimeNs>(shared_cores) * h;
  if (total_demand > capacity) {
    std::vector<std::size_t> shavable;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (RoundedUp(tasks[i], shared[i].utilization) &&
          tasks[i].cost > config_.coalesce_threshold) {
        shavable.push_back(i);
      }
    }
    std::sort(shavable.begin(), shavable.end(), [&](std::size_t a, std::size_t b) {
      return h / tasks[a].period > h / tasks[b].period;  // Most ns recovered first.
    });
    for (const std::size_t i : shavable) {
      if (total_demand <= capacity) {
        break;
      }
      tasks[i].cost -= 1;
      total_demand -= h / tasks[i].period;
      SetTask(result.vcpus[i], tasks[i]);
    }
  }
  // The machine-level capacity verdict is one utilization-rung admission
  // decision, whichever way it goes.
  admission_tally.Record(AdmissionRung::kUtilization);
  if (total_demand > capacity) {
    PlanResult rejected =
        Fail(PlanFailure::kAdmission,
             "over-utilized: demand " + std::to_string(total_demand) + " ns > " +
                 std::to_string(shared_cores) + " cores x " + std::to_string(h) + " ns");
    rejected.admission = TallyToBreakdown(admission_tally);
    ExportAdmissionMetrics(pm, rejected.admission);
    return rejected;
  }

  // --- Stage 1: partitioning; Stage 2: C=D semi-partitioning ---
  std::vector<std::vector<Allocation>> per_core(
      static_cast<std::size_t>(config_.num_cpus));
  std::vector<std::vector<PeriodicTask>> core_tasks;

  // NUMA affinity constraints (CheckRequests vetted the sockets), honored by
  // the partitioning stage.
  std::map<VcpuId, int> socket_of;
  for (const VcpuRequest& request : shared) {
    if (const int socket = RequiredSocket(request, config_); socket >= 0) {
      socket_of[request.vcpu] = socket;
    }
  }
  const int cores_per_socket =
      config_.cores_per_socket > 0 ? config_.cores_per_socket : shared_cores;
  const auto Partition = [&](const std::vector<PeriodicTask>& task_set) {
    PhaseTimer timer(pm.partition);
    return WorstFitDecreasingNuma(task_set, socket_of, shared_cores, cores_per_socket, h);
  };

  PartitionResult partition = Partition(tasks);
  if (!partition.complete) {
    // Partitioning can fail purely due to ceil-rounding: e.g. four
    // quarter-share tasks whose C = ceil(T/4) overflow a core by a few ns.
    // Retry with 1 ns shaved from every rounded-up budget before escalating
    // to semi-partitioning; the guarantee degrades only by the nanosecond
    // quantization already inherent in the table format.
    std::vector<PeriodicTask> shaved = tasks;
    bool any_shaved = false;
    for (std::size_t i = 0; i < shaved.size(); ++i) {
      if (RoundedUp(shaved[i], shared[i].utilization) && shaved[i].cost > 1) {
        shaved[i].cost -= 1;
        any_shaved = true;
      }
    }
    if (any_shaved) {
      PartitionResult retry = Partition(shaved);
      if (retry.complete) {
        partition = std::move(retry);
        tasks = std::move(shaved);
        for (std::size_t i = 0; i < tasks.size(); ++i) {
          SetTask(result.vcpus[i], tasks[i]);
        }
      }
    }
  }
  if (partition.complete) {
    result.method = PlanMethod::kPartitioned;
    core_tasks = std::move(partition.core_tasks);
  } else {
    SemiPartitionResult semi;
    {
      PhaseTimer timer(pm.cd_split);
      semi = SemiPartition(tasks, shared_cores, h, kMinPeriodNs, &admission_tally);
    }
    if (semi.complete) {
      result.method = PlanMethod::kSemiPartitioned;
      core_tasks = std::move(semi.core_tasks);
    } else {
      // --- Stage 3: DP-Fair over a growing cluster of cores ---
      // Clustered cores get their allocations here and no tasks, so the
      // tail's EDF simulation passes them by.
      result.method = PlanMethod::kClustered;
      core_tasks = std::move(semi.core_tasks);
      // Cores hosting C=D pieces keep their EDF tables; only cores with
      // purely implicit-deadline assignments may join the cluster.
      std::vector<int> mergeable;
      for (int c = 0; c < shared_cores; ++c) {
        const auto& assigned = core_tasks[static_cast<std::size_t>(c)];
        const bool has_split_piece =
            std::any_of(assigned.begin(), assigned.end(), [](const PeriodicTask& t) {
              return t.offset != 0 || t.deadline != t.period;
            });
        if (!has_split_piece) {
          mergeable.push_back(c);
        }
      }
      // Prefer merging the least-loaded cores first (most spare capacity).
      std::sort(mergeable.begin(), mergeable.end(), [&](int a, int b) {
        const TimeNs sa = SpareCapacity(core_tasks[static_cast<std::size_t>(a)], h);
        const TimeNs sb = SpareCapacity(core_tasks[static_cast<std::size_t>(b)], h);
        if (sa != sb) return sa > sb;
        return a < b;
      });

      bool clustered = false;
      for (int k = 2; k <= static_cast<int>(mergeable.size()); ++k) {
        std::vector<PeriodicTask> cluster_tasks = semi.unassigned;
        for (int i = 0; i < k; ++i) {
          const auto& assigned = core_tasks[static_cast<std::size_t>(mergeable[i])];
          cluster_tasks.insert(cluster_tasks.end(), assigned.begin(), assigned.end());
        }
        ClusterScheduleResult cluster;
        {
          PhaseTimer timer(pm.cluster);
          cluster = DpFairSchedule(cluster_tasks, k, h);
        }
        if (!cluster.success) {
          continue;
        }
        for (int i = 0; i < k; ++i) {
          const auto core = static_cast<std::size_t>(mergeable[i]);
          core_tasks[core].clear();
          per_core[core] = std::move(cluster.core_allocations[static_cast<std::size_t>(i)]);
        }
        clustered = true;
        break;
      }
      if (!clustered) {
        // Last resort: DP-Fair over all shared cores with all tasks. This is
        // guaranteed to succeed for any non-over-utilized configuration of
        // implicit-deadline tasks (modulo nanosecond-rounding repair).
        ClusterScheduleResult cluster;
        {
          PhaseTimer timer(pm.cluster);
          cluster = DpFairSchedule(tasks, shared_cores, h);
        }
        if (!cluster.success) {
          return Fail(PlanFailure::kInternal, "cluster scheduling failed (pathological rounding)");
        }
        core_tasks.assign(static_cast<std::size_t>(shared_cores), {});
        for (int c = 0; c < shared_cores; ++c) {
          const auto core = static_cast<std::size_t>(c);
          per_core[core] = std::move(cluster.core_allocations[core]);
        }
      }
    }
  }

  // --- Dedicated cores occupy the tail core indices ---
  for (std::size_t i = 0; i < dedicated.size(); ++i) {
    const auto core = static_cast<std::size_t>(shared_cores) + i;
    per_core[core].push_back(Allocation{dedicated[i], 0, h});
  }

  result.core_tasks = std::move(core_tasks);
  result.requests = requests;
  FinishPlan(config_, pm,
             std::vector<bool>(static_cast<std::size_t>(config_.num_cpus), true),
             /*previous=*/nullptr, std::move(per_core), admission_tally, result);
  return result;
}

PlanResult Planner::PlanDelta(const PlanRequest& request) const {
  const TimeNs h = kHyperperiodNs;
  const PlanResult& previous = *request.previous;
  std::vector<VcpuRequest> requests = MergedRequests(request);
  const bool reusable =
      previous.success && previous.method == PlanMethod::kPartitioned &&
      static_cast<int>(previous.core_tasks.size()) == config_.num_cpus &&
      std::none_of(request.added.begin(), request.added.end(),
                   [](const VcpuRequest& r) { return r.utilization >= 1.0; });
  if (!reusable || !CheckRequests(requests, config_).empty()) {
    return PlanFull(requests);  // Which also words every rejection.
  }
  // Instrumented only past this point: the fallback paths above land in
  // PlanFull(), which carries its own timers (avoids double-counting plan_total).
  const PhaseMetrics pm = ResolvePhaseMetrics(config_.metrics, config_.wall_timings);
  PhaseTimer total_timer(pm.plan_total);
  if (pm.incremental_plans != nullptr) {
    pm.incremental_plans->Increment();
  }
  AdmissionTally admission_tally;

  // Departed vCPUs leave their cores, which turn fresh.
  PlanResult result;
  result.method = PlanMethod::kPartitioned;
  result.core_tasks = previous.core_tasks;
  const auto num_cpus = static_cast<std::size_t>(config_.num_cpus);
  std::vector<bool> fresh(num_cpus, false);
  std::vector<TimeNs> load(num_cpus);
  const std::set<VcpuId> departing(request.departed.begin(), request.departed.end());
  const auto Departs = [&](VcpuId vcpu) { return departing.find(vcpu) != departing.end(); };
  for (std::size_t core = 0; core < num_cpus; ++core) {
    std::vector<PeriodicTask>& assigned = result.core_tasks[core];
    const std::size_t before = assigned.size();
    assigned.erase(std::remove_if(assigned.begin(), assigned.end(),
                                  [&](const PeriodicTask& t) { return Departs(t.vcpu); }),
                   assigned.end());
    fresh[core] = assigned.size() != before;
    load[core] = TotalDemand(assigned, h);
  }
  for (const VcpuPlan& plan : previous.vcpus) {
    if (!Departs(plan.vcpu)) {
      result.vcpus.push_back(plan);
    }
  }

  // Added vCPUs go, in order, to the worst-fit core of their socket.
  const int cores_per_socket =
      config_.cores_per_socket > 0 ? config_.cores_per_socket : config_.num_cpus;
  for (const VcpuRequest& added : request.added) {
    TaskMapping mapping;
    if (!MapSharedRequest(added, config_.coalesce_threshold, &mapping).empty()) {
      return PlanFull(requests);
    }
    PeriodicTask task = mapping.task;
    const int socket = RequiredSocket(added, config_);
    int best = WorstFitCore(load, task.DemandPerHyperperiod(h), socket, cores_per_socket, h);
    if (best == -1 && task.cost > 1 && RoundedUp(task, added.utilization)) {
      // Quantization retry: a 1 ns shave may make it fit (see PlanFull()).
      task.cost -= 1;
      best = WorstFitCore(load, task.DemandPerHyperperiod(h), socket, cores_per_socket, h);
    }
    if (best == -1) {
      return PlanFull(requests);  // Needs rebalancing or splitting: full replan.
    }
    // Worst-fit placement admits the task by per-core demand alone: one
    // utilization-rung decision (the fallback paths re-decide in PlanFull).
    admission_tally.Record(AdmissionRung::kUtilization);
    const auto core = static_cast<std::size_t>(best);
    result.core_tasks[core].push_back(task);
    load[core] += task.DemandPerHyperperiod(h);
    fresh[core] = true;
    result.vcpus.push_back(SharedPlan(added, mapping, task));
  }

  result.requests = std::move(requests);
  FinishPlan(config_, pm, fresh, &previous.table,
             std::vector<std::vector<Allocation>>(num_cpus), admission_tally, result);
  return result;
}

namespace {
std::mutex g_audit_mutex;
PlanAuditHook g_audit_hook;
}  // namespace

void SetPlanAuditHook(PlanAuditHook hook) {
  std::lock_guard<std::mutex> lock(g_audit_mutex);
  g_audit_hook = std::move(hook);
}

PlanResult Planner::Solve(const PlanRequest& request) const {
  PlanResult result = SolveImpl(request);
  if (result.success) {
    PlanAuditHook hook;
    {
      std::lock_guard<std::mutex> lock(g_audit_mutex);
      hook = g_audit_hook;
    }
    if (hook) {
      hook(result, config_);
    }
  }
  return result;
}

PlanResult Planner::SolveImpl(const PlanRequest& request) const {
  if (config_.fault_injector != nullptr) {
    switch (config_.fault_injector->NextPlannerOutcome()) {
      case faults::FaultInjector::PlannerOutcome::kFail:
        return Fail(PlanFailure::kInjected, "injected planner failure");
      case faults::FaultInjector::PlannerOutcome::kTimeout:
        return Fail(PlanFailure::kInjected, "injected planner timeout (deadline exceeded)");
      case faults::FaultInjector::PlannerOutcome::kProceed:
        break;
    }
  }

  PlanResult result =
      request.previous != nullptr ? PlanDelta(request) : PlanFull(request.requests);
  if (result.success || result.failure != PlanFailure::kAdmission ||
      config_.max_latency_degradations <= 0) {
    return result;
  }

  // Graceful degradation: admission control said no at the requested latency
  // goals. Looser goals map to longer periods with proportionally less
  // ceil-rounding over-reservation (and make tight reservations mappable at
  // all), so relax every goal stepwise before giving up. The result's
  // degradation_steps tells the caller how far its goals were stretched.
  std::vector<VcpuRequest> relaxed = MergedRequests(request);
  obs::Counter* degradations =
      config_.metrics != nullptr ? config_.metrics->GetCounter("planner.latency_degradations")
                                 : nullptr;
  for (int step = 1; step <= config_.max_latency_degradations; ++step) {
    for (VcpuRequest& r : relaxed) {
      r.latency_goal = static_cast<TimeNs>(
          std::ceil(static_cast<double>(r.latency_goal) * kLatencyDegradationFactor));
    }
    if (degradations != nullptr) {
      degradations->Increment();
    }
    PlanResult retry = PlanFull(relaxed);
    // The final result's breakdown covers the whole solve, retries included.
    retry.admission.utilization += result.admission.utilization;
    retry.admission.density += result.admission.density;
    retry.admission.qpa += result.admission.qpa;
    retry.admission.simulation += result.admission.simulation;
    if (retry.success) {
      retry.degradation_steps = step;
      return retry;
    }
    result = std::move(retry);
    if (result.failure != PlanFailure::kAdmission) {
      break;  // Degradation can only fix admission rejections.
    }
  }
  return result;
}

}  // namespace tableau
