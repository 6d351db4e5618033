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

using PhaseMetrics = Planner::PhaseMetrics;

PhaseMetrics ResolvePhaseMetrics(obs::MetricsRegistry* registry,
                                 bool wall_timings) {
  PhaseMetrics m;
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

// Orders PlanResult::vcpu_index entries against a vCPU id.
bool Precedes(const VcpuIndexEntry& entry, VcpuId vcpu) { return entry.vcpu < vcpu; }

// The entry of `vcpu` in a (const) vcpu_index, or `index.end()`.
template <typename Index>
auto FindVcpu(Index& index, VcpuId vcpu) {
  const auto it = std::lower_bound(index.begin(), index.end(), vcpu, Precedes);
  return it != index.end() && it->vcpu == vcpu ? it : index.end();
}

// True if a delta adds a vCPU id that is live in its previous plan and does
// not depart.
bool ReusesLiveId(const PlanRequest& request) {
  const std::vector<VcpuIndexEntry>& live = request.previous->vcpu_index;
  const std::vector<VcpuId>& departed = request.departed;
  return std::any_of(request.added.begin(), request.added.end(), [&](const VcpuRequest& r) {
    return FindVcpu(live, r.vcpu) != live.end() &&
           std::find(departed.begin(), departed.end(), r.vcpu) == departed.end();
  });
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
// method, vCPU plans and their index, core tasks and requests; `per_core`
// with the allocations earlier stages laid out (clustered and dedicated
// cores). Runs the per-core EDF simulation of the fresh cores that have
// tasks, peephole, coalescing, table build and validation, and the
// split/donation accounting of the vCPUs on fresh cores. A core not in
// `fresh` keeps `previous`'s whole per-pCPU table (allocations, slice table
// and local vCPUs), so only fresh cores are built and validated, and the
// plans of its vCPUs are kept as they are: a carried core is a whole core of
// a partitioned plan, so no vCPU straddles a fresh and a carried core.
void FinishPlan(const PlannerConfig& config, const PhaseMetrics& pm,
                const std::vector<bool>& fresh, const SchedulingTable* previous,
                std::vector<std::vector<Allocation>> per_core, AdmissionTally& tally,
                PlanResult& result) {
  const TimeNs h = kHyperperiodNs;
  const CoreTasks& core_tasks = result.core_tasks;
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
    // `previous` is a validated table, so only vCPUs on fresh cores can
    // break cross-pCPU exclusion in the table derived from it.
    violation = previous == nullptr ? result.table.Validate() : result.table.Validate(fresh);
  }
  TABLEAU_CHECK_MSG(violation.empty(), "planner produced invalid table: %s",
                    violation.c_str());

  // Each vCPU listed on a fresh core or donating time there gets its split
  // flag (listed on more than one fresh core) and its donations recounted.
  std::vector<VcpuId> listed;
  result.dirty_cores.clear();
  for (int c = 0; c < result.table.num_cpus(); ++c) {
    if (fresh[static_cast<std::size_t>(c)]) {
      result.dirty_cores.push_back(c);
      const std::vector<VcpuId>& locals = result.table.cpu(c).local_vcpus;
      listed.insert(listed.end(), locals.begin(), locals.end());
    }
  }
  std::sort(listed.begin(), listed.end());
  std::sort(donated.begin(), donated.end());
  auto next_listed = listed.begin();
  auto next_donated = donated.begin();
  while (next_listed != listed.end() || next_donated != donated.end()) {
    const VcpuId vcpu = next_donated == donated.end() ? *next_listed
                        : next_listed == listed.end() ? next_donated->first
                                                      : std::min(*next_listed, next_donated->first);
    int cores = 0;
    for (; next_listed != listed.end() && *next_listed == vcpu; ++next_listed) {
      ++cores;
    }
    TimeNs amount = 0;
    for (; next_donated != donated.end() && next_donated->first == vcpu; ++next_donated) {
      amount += next_donated->second;
    }
    const auto entry = FindVcpu(result.vcpu_index, vcpu);
    TABLEAU_CHECK(entry != result.vcpu_index.end());
    VcpuPlan& plan = result.vcpus[static_cast<std::size_t>(entry->position)];
    plan.split = cores > 1;
    plan.donated_ns = amount;
  }
  result.success = true;
  result.admission = TallyToBreakdown(tally);
  ExportAdmissionMetrics(pm, result.admission);
}

// The Sec. 5 pipeline over a whole request set, free of injection and
// degradation (Solve() owns both).
PlanResult PlanFull(const PlannerConfig& config, const PhaseMetrics& pm,
                    const std::vector<VcpuRequest>& requests) {
  const TimeNs h = kHyperperiodNs;
  if (pm.plans != nullptr) {
    pm.plans->Increment();
  }
  AdmissionTally admission_tally;

  if (const std::string error = CheckRequests(requests, config); !error.empty()) {
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
  const int shared_cores = config.num_cpus - static_cast<int>(dedicated.size());
  if (shared_cores < 0 || (shared_cores == 0 && !shared.empty())) {
    return Fail(PlanFailure::kAdmission,
                "not enough cores: " + std::to_string(dedicated.size()) +
                " dedicated vCPUs on " + std::to_string(config.num_cpus) + " cores");
  }

  // --- Map (U, L) reservations to periodic tasks ---
  PlanResult result;
  std::vector<PeriodicTask> tasks;
  for (const VcpuRequest& request : shared) {
    TaskMapping mapping;
    if (const std::string error =
            MapSharedRequest(request, config.coalesce_threshold, &mapping);
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
          tasks[i].cost > config.coalesce_threshold) {
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
      static_cast<std::size_t>(config.num_cpus));
  std::vector<std::vector<PeriodicTask>> core_tasks;

  // NUMA affinity constraints (CheckRequests vetted the sockets), honored by
  // the partitioning stage.
  std::map<VcpuId, int> socket_of;
  for (const VcpuRequest& request : shared) {
    if (const int socket = RequiredSocket(request, config); socket >= 0) {
      socket_of[request.vcpu] = socket;
    }
  }
  const int cores_per_socket =
      config.cores_per_socket > 0 ? config.cores_per_socket : shared_cores;
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
  result.vcpu_index.reserve(result.vcpus.size());
  for (std::size_t i = 0; i < result.vcpus.size(); ++i) {
    result.vcpu_index.push_back(VcpuIndexEntry{result.vcpus[i].vcpu, static_cast<std::int32_t>(i)});
  }
  std::sort(result.vcpu_index.begin(), result.vcpu_index.end(),
            [](const VcpuIndexEntry& a, const VcpuIndexEntry& b) { return a.vcpu < b.vcpu; });
  if (result.method == PlanMethod::kPartitioned) {
    for (std::size_t core = 0; core < result.core_tasks.size(); ++core) {
      for (const PeriodicTask& task : result.core_tasks[core]) {
        FindVcpu(result.vcpu_index, task.vcpu)->core = static_cast<std::int32_t>(core);
      }
    }
  }
  FinishPlan(config, pm,
             std::vector<bool>(static_cast<std::size_t>(config.num_cpus), true),
             /*previous=*/nullptr, std::move(per_core), admission_tally, result);
  return result;
}

// The same pipeline with the previous assignment reused (the Sec. 7.1
// optimization: "tables can be incrementally re-computed on a per-core
// basis"): departed vCPUs leave their cores, added ones are placed by the
// worst-fit scan, and only the touched cores are re-simulated and built;
// untouched cores keep their previous task lists and per-pCPU tables.
// Anything else runs PlanFull over the merged request set: a previous plan
// that is not fully partitioned onto shared cores, an added dedicated vCPU,
// a merged set PlanFull would reject, or an added vCPU that fits on no
// single core. PlanFull is called directly, so a single Solve draws at most
// one injected outcome and degrades at most once.
PlanResult PlanDelta(const PlannerConfig& config, const PhaseMetrics& pm,
                     const PlanRequest& request) {
  const TimeNs h = kHyperperiodNs;
  const PlanResult& previous = *request.previous;
  const bool reusable =
      previous.success && previous.method == PlanMethod::kPartitioned &&
      static_cast<int>(previous.core_tasks.size()) == config.num_cpus &&
      std::none_of(request.added.begin(), request.added.end(),
                   [](const VcpuRequest& r) { return r.utilization >= 1.0; });
  const auto Fallback = [&] {
    return PlanFull(config, pm, MergedRequests(request));  // Which also words every rejection.
  };
  // `previous` comes from a planner with this configuration, so its requests
  // passed CheckRequests: the merged set is malformed exactly when the added
  // requests are, or when one of them reuses a live id that does not depart.
  // Neither side has a dedicated vCPU, so the added requests alone give
  // CheckRequests the merged set's socket bound.
  if (!reusable || !CheckRequests(request.added, config).empty() || ReusesLiveId(request)) {
    return Fallback();
  }
  if (pm.incremental_plans != nullptr) {
    pm.incremental_plans->Increment();
  }
  AdmissionTally admission_tally;

  // The plan starts as the previous one: per-core lists are shared, and the
  // flat per-vCPU vectors are copied with room for the added vCPUs.
  PlanResult result;
  result.method = PlanMethod::kPartitioned;
  result.core_tasks = previous.core_tasks;
  const std::size_t capacity = previous.vcpus.size() + request.added.size();
  result.vcpus.reserve(capacity);
  result.vcpus.assign(previous.vcpus.begin(), previous.vcpus.end());
  result.requests.reserve(capacity);
  result.requests.assign(previous.requests.begin(), previous.requests.end());
  result.vcpu_index.reserve(capacity);
  result.vcpu_index.assign(previous.vcpu_index.begin(), previous.vcpu_index.end());

  // Departed vCPUs leave their own cores, which turn fresh.
  const auto num_cpus = static_cast<std::size_t>(config.num_cpus);
  std::vector<bool> fresh(num_cpus, false);
  std::vector<std::int32_t> gone;
  for (const VcpuId vcpu : request.departed) {
    const auto entry = FindVcpu(result.vcpu_index, vcpu);
    if (entry == result.vcpu_index.end()) {
      continue;  // Not live, or named twice.
    }
    TABLEAU_CHECK(entry->core >= 0);  // A reusable plan places every vCPU.
    const auto core = static_cast<std::size_t>(entry->core);
    result.core_tasks.Erase(core, vcpu);
    fresh[core] = true;
    gone.push_back(entry->position);
    result.vcpu_index.erase(entry);
  }
  if (!gone.empty()) {
    std::sort(gone.begin(), gone.end());
    for (auto position = gone.rbegin(); position != gone.rend(); ++position) {
      result.vcpus.erase(result.vcpus.begin() + *position);
      result.requests.erase(result.requests.begin() + *position);
    }
    for (VcpuIndexEntry& entry : result.vcpu_index) {
      entry.position -= static_cast<std::int32_t>(
          std::lower_bound(gone.begin(), gone.end(), entry.position) - gone.begin());
    }
  }
  std::vector<TimeNs> load(num_cpus);
  for (std::size_t core = 0; core < num_cpus; ++core) {
    load[core] = result.core_tasks.demand(core);
  }

  // Added vCPUs go, in order, to the worst-fit core of their socket.
  const int cores_per_socket =
      config.cores_per_socket > 0 ? config.cores_per_socket : config.num_cpus;
  for (const VcpuRequest& added : request.added) {
    TaskMapping mapping;
    if (!MapSharedRequest(added, config.coalesce_threshold, &mapping).empty()) {
      return Fallback();
    }
    PeriodicTask task = mapping.task;
    const int socket = RequiredSocket(added, config);
    int best = WorstFitCore(load, task.DemandPerHyperperiod(h), socket, cores_per_socket, h);
    if (best == -1 && task.cost > 1 && RoundedUp(task, added.utilization)) {
      // Quantization retry: a 1 ns shave may make it fit (see PlanFull()).
      task.cost -= 1;
      best = WorstFitCore(load, task.DemandPerHyperperiod(h), socket, cores_per_socket, h);
    }
    if (best == -1) {
      return Fallback();  // Needs rebalancing or splitting: full replan.
    }
    // Worst-fit placement admits the task by per-core demand alone: one
    // utilization-rung decision (the fallback paths re-decide in PlanFull).
    admission_tally.Record(AdmissionRung::kUtilization);
    const auto core = static_cast<std::size_t>(best);
    result.core_tasks.Append(core, task);
    load[core] += task.DemandPerHyperperiod(h);
    fresh[core] = true;
    result.vcpu_index.insert(
        std::lower_bound(result.vcpu_index.begin(), result.vcpu_index.end(), added.vcpu,
                         Precedes),
        VcpuIndexEntry{added.vcpu, static_cast<std::int32_t>(result.vcpus.size()), best});
    result.vcpus.push_back(SharedPlan(added, mapping, task));
    result.requests.push_back(added);
  }

  FinishPlan(config, pm, fresh, &previous.table,
             std::vector<std::vector<Allocation>>(num_cpus), admission_tally, result);
  return result;
}

// Constructed on first use: the bench harness installs its hook from a
// static initializer in another translation unit, which may run before
// this file's own static initializers (a namespace-scope std::function
// would then be reset to empty after the hook was set).
struct AuditHookSlot {
  std::mutex mutex;
  PlanAuditHook hook;
};
AuditHookSlot& AuditHook() {
  static AuditHookSlot slot;
  return slot;
}

}  // namespace

Planner::Planner(PlannerConfig config)
    : config_(config), metrics_resolved_(config_.metrics == nullptr) {
  TABLEAU_CHECK(config_.num_cpus > 0);
}

const Planner::PhaseMetrics& Planner::Metrics() const {
  if (!metrics_resolved_) {
    metrics_ = ResolvePhaseMetrics(config_.metrics, config_.wall_timings);
    metrics_resolved_ = true;
  }
  return metrics_;
}

void SetPlanAuditHook(PlanAuditHook hook) {
  AuditHookSlot& slot = AuditHook();
  std::lock_guard<std::mutex> lock(slot.mutex);
  slot.hook = std::move(hook);
}

PlanResult Planner::Solve(const PlanRequest& request) const {
  PlanResult result = SolveImpl(request);
  if (result.success) {
    PlanAuditHook hook;
    {
      AuditHookSlot& slot = AuditHook();
      std::lock_guard<std::mutex> lock(slot.mutex);
      hook = slot.hook;
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

  const PhaseMetrics& pm = Metrics();
  // The solve's one plan_total sample: request checks, full-solve fallbacks
  // and degradation retries included.
  PhaseTimer total_timer(pm.plan_total);
  PlanResult result = request.previous != nullptr ? PlanDelta(config_, pm, request)
                                                  : PlanFull(config_, pm, request.requests);
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
    PlanResult retry = PlanFull(config_, pm, relaxed);
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
