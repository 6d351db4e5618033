#include "src/fleet/cluster.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace tableau::fleet {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// Live-migration transfer time (drain-complete to activation on the
// destination; models the memory-copy phase).
constexpr TimeNs kTransferNs = 10 * kMillisecond;

inline void Mix(std::uint64_t& fp, std::uint64_t value) {
  fp = (fp ^ value) * kFnvPrime;
}

std::vector<std::unique_ptr<Host>> MakeHosts(const ClusterConfig& config) {
  TABLEAU_CHECK(config.num_hosts >= 1);
  TABLEAU_CHECK(config.control_period > 0);
  if (config.host.attach_telemetry && config.host.slots_per_core > 0) {
    TABLEAU_CHECK_MSG(config.host.telemetry.window_ns == config.control_period,
                      "telemetry window must equal the control period so "
                      "cadence samples land on tick barriers");
  }
  std::vector<std::unique_ptr<Host>> hosts;
  hosts.reserve(static_cast<std::size_t>(config.num_hosts));
  for (int h = 0; h < config.num_hosts; ++h) {
    HostConfig host_config = config.host;
    host_config.index = h;
    hosts.push_back(std::make_unique<Host>(host_config));
  }
  return hosts;
}

std::vector<Simulation*> EnginesOf(const std::vector<std::unique_ptr<Host>>& hosts) {
  std::vector<Simulation*> engines;
  engines.reserve(hosts.size());
  for (const auto& host : hosts) {
    engines.push_back(&host->machine().sim());
  }
  return engines;
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config)
    : config_(config), hosts_(MakeHosts(config_)), sim_(EnginesOf(hosts_), config_.sim) {
  streams_.reserve(config_.vms.size());
  vm_state_.resize(config_.vms.size());
  for (std::size_t i = 0; i < config_.vms.size(); ++i) {
    TABLEAU_CHECK_MSG(config_.vms[i].vm == static_cast<int>(i),
                      "VmReservation ids must be dense and in order");
    streams_.push_back(std::make_unique<VmStream>(config_.vms[i]));
    arrival_order_.push_back(static_cast<int>(i));
  }
  std::sort(arrival_order_.begin(), arrival_order_.end(), [this](int a, int b) {
    const auto& va = config_.vms[static_cast<std::size_t>(a)];
    const auto& vb = config_.vms[static_cast<std::size_t>(b)];
    if (va.arrival != vb.arrival) return va.arrival < vb.arrival;
    return a < b;
  });
}

void Cluster::Start() {
  TABLEAU_CHECK(!started_);
  started_ = true;
  for (auto& host : hosts_) {
    host->machine().Start();
  }
  ControlTick(0);
  next_tick_ = config_.control_period;
}

void Cluster::RunUntil(TimeNs until) {
  TABLEAU_CHECK(started_);
  while (next_tick_ <= until) {
    sim_.RunUntil(next_tick_);
    for (auto& host : hosts_) {
      host->machine().SampleTelemetryCadence(next_tick_);
    }
    ControlTick(next_tick_);
    next_tick_ += config_.control_period;
  }
  sim_.RunUntil(until);
}

void Cluster::ControlTick(TimeNs now) {
  ++control_ticks_;
  // Fixed phase order; every loop below walks hosts/VMs in deterministic
  // order, so the tick's actions are identical in all execution modes.
  CompleteDrains(now);
  DetectOverloads(now);
  AdmitArrivals(now);
  AdaptReservations(now);
}

void Cluster::AdaptReservations(TimeNs now) {
  // Controller ticks after admission, in host order: each host closes its
  // slots' windows at this barrier, one telemetry window after the last, so
  // the inputs — and therefore every resize — are execution-mode-independent.
  for (auto& host : hosts_) {
    resizes_ += static_cast<std::uint64_t>(host->AdaptTick(now));
  }
  // Packing-density sample: how much of the fleet's core capacity the live
  // reservations hold after this tick's resizes.
  double committed = 0;
  double cores = 0;
  for (const auto& host : hosts_) {
    committed += host->committed();
    cores += static_cast<double>(host->config().num_cpus);
  }
  committed_fraction_sum_ += cores > 0 ? committed / cores : 0;
  ++committed_samples_;
}

double Cluster::AvgCommittedFraction() const {
  return committed_samples_ == 0
             ? 0
             : committed_fraction_sum_ / static_cast<double>(committed_samples_);
}

void Cluster::ActivateOn(int vm, int host, int slot, TimeNs at) {
  Host* target = hosts_[static_cast<std::size_t>(host)].get();
  streams_[static_cast<std::size_t>(vm)]->Activate(
      &target->machine(), target->slot_guest(slot), target->telemetry(), slot, at);
}

void Cluster::CompleteDrains(TimeNs now) {
  std::vector<MigrationRecord> still_draining;
  for (MigrationRecord& migration : draining_) {
    VmStream& stream = *streams_[static_cast<std::size_t>(migration.vm)];
    if (!stream.Drained()) {
      still_draining.push_back(migration);
      continue;
    }
    VmState& state = vm_state_[static_cast<std::size_t>(migration.vm)];
    const VmReservation& spec = stream.spec();
    // Pick the destination now (not at detection): capacity may have moved
    // while the drain ran.
    const int destination = PickHost(spec.utilization, /*exclude=*/migration.from);
    if (destination < 0) {
      // Nowhere to go: resume on the source (its slot is still held).
      state.status = VmState::Status::kActive;
      ActivateOn(migration.vm, migration.from, state.slot, now);
      continue;
    }
    hosts_[static_cast<std::size_t>(migration.from)]->RemoveVm(state.slot);
    const int slot = hosts_[static_cast<std::size_t>(destination)]->AdmitVm(
        spec.utilization, spec.latency_goal);
    if (slot < 0) {
      // Destination replan failed; fall back to the source slot.
      const int back = hosts_[static_cast<std::size_t>(migration.from)]->AdmitVm(
          spec.utilization, spec.latency_goal);
      TABLEAU_CHECK(back >= 0);
      state.slot = back;
      state.status = VmState::Status::kActive;
      ActivateOn(migration.vm, migration.from, back, now);
      continue;
    }
    migration.to = destination;
    migration.transferred = now;
    state.host = destination;
    state.slot = slot;
    state.status = VmState::Status::kActive;
    ++state.migrations;
    migrations_.push_back(migration);
    const int vm = migration.vm;
    const int dest = destination;
    sim_.Post(migration.from, destination, kTransferNs,
              [this, vm, dest, slot] {
                ActivateOn(vm, dest, slot,
                           hosts_[static_cast<std::size_t>(dest)]->machine().Now());
              });
  }
  draining_ = std::move(still_draining);
}

void Cluster::DetectOverloads(TimeNs now) {
  for (std::size_t vm = 0; vm < streams_.size(); ++vm) {
    VmState& state = vm_state_[vm];
    if (state.status != VmState::Status::kActive || state.migrations > 0) {
      continue;
    }
    VmStream& stream = *streams_[vm];
    if (stream.completed() < config_.min_requests_before_migration) {
      continue;
    }
    Host& host = *hosts_[static_cast<std::size_t>(state.host)];
    if (host.telemetry() == nullptr) {
      continue;
    }
    const obs::SloVerdict verdict = host.telemetry()->slo().VerdictFor(state.slot);
    // Sustained evidence: a consecutive over-budget streak (burst), or — for
    // overloads so heavy that completions straggle in less than once per
    // window, which gap-resets the streak — the same number of over-budget
    // windows accumulated non-consecutively.
    const bool sustained =
        verdict.burst_detected ||
        verdict.windows_over_budget >=
            static_cast<std::uint64_t>(
                host.telemetry()->slo().config().burst_streak_windows);
    if (!sustained || verdict.burn_rate < config_.migrate_burn_threshold) {
      continue;
    }
    // Overload confirmed: begin the drain. New arrivals stop immediately;
    // the FIFO keeps serving in-flight requests until Drained().
    stream.Pause();
    state.status = VmState::Status::kDraining;
    MigrationRecord migration;
    migration.vm = static_cast<int>(vm);
    migration.from = state.host;
    migration.drain_started = now;
    draining_.push_back(migration);
  }
}

void Cluster::AdmitArrivals(TimeNs now) {
  while (next_arrival_ < arrival_order_.size()) {
    const int vm = arrival_order_[next_arrival_];
    const VmReservation& spec = config_.vms[static_cast<std::size_t>(vm)];
    if (spec.arrival > now) {
      return;
    }
    ++next_arrival_;
    VmState& state = vm_state_[static_cast<std::size_t>(vm)];
    const int host = PickHost(spec.utilization, /*exclude=*/-1);
    int slot = -1;
    if (host >= 0) {
      slot = hosts_[static_cast<std::size_t>(host)]->AdmitVm(spec.utilization,
                                                             spec.latency_goal);
    }
    if (slot < 0) {
      state.status = VmState::Status::kRejected;
      continue;
    }
    state.status = VmState::Status::kActive;
    state.host = host;
    state.slot = slot;
    const int vm_id = vm;
    sim_.Post(host, host, config_.admission_latency, [this, vm_id] {
      const VmState& placed = vm_state_[static_cast<std::size_t>(vm_id)];
      ActivateOn(vm_id, placed.host, placed.slot,
                 hosts_[static_cast<std::size_t>(placed.host)]->machine().Now());
    });
  }
}

int Cluster::PickHost(double utilization, int exclude) const {
  int best = -1;
  double best_free = -1;
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    if (static_cast<int>(h) == exclude) {
      continue;
    }
    const Host& host = *hosts_[h];
    const double limit =
        config_.max_committed * static_cast<double>(host.config().num_cpus);
    const double free = limit - host.committed();
    if (host.free_slots() == 0 || free < utilization) {
      continue;
    }
    if (config_.placement == PlacementPolicy::kFirstFit) {
      return static_cast<int>(h);
    }
    if (free > best_free) {  // Worst fit: most headroom, ties by index.
      best_free = free;
      best = static_cast<int>(h);
    }
  }
  return best;
}

obs::MetricsSnapshot Cluster::MergedMetrics() {
  obs::MetricsSnapshot merged;
  for (auto& host : hosts_) {
    host->machine().SettleAllCpus();
    merged.Merge(host->SnapshotMetrics());
  }
  return merged;
}

obs::TimeSeriesSnapshot Cluster::MergedTimeSeries() const {
  obs::TimeSeriesSnapshot merged;
  for (const auto& host : hosts_) {
    if (host->telemetry() != nullptr) {
      merged.Merge(host->telemetry()->TimeSeries());
    }
  }
  return merged;
}

Cluster::SloSummary Cluster::Slo() const {
  SloSummary summary;
  for (std::size_t vm = 0; vm < streams_.size(); ++vm) {
    const VmStream& stream = *streams_[vm];
    if (vm_state_[vm].status == VmState::Status::kRejected) {
      ++summary.vms_rejected;
      continue;
    }
    if (vm_state_[vm].status == VmState::Status::kPending) {
      continue;
    }
    ++summary.vms_admitted;
    summary.requests += stream.completed();
    summary.misses += stream.misses();
    if (stream.completed() > 0) {
      const double attainment =
          1.0 - static_cast<double>(stream.misses()) /
                    static_cast<double>(stream.completed());
      summary.worst_vm_attainment = std::min(summary.worst_vm_attainment, attainment);
    }
  }
  if (summary.requests > 0) {
    summary.attainment = 1.0 - static_cast<double>(summary.misses) /
                                   static_cast<double>(summary.requests);
  }
  return summary;
}

std::uint64_t Cluster::Fingerprint() const {
  std::uint64_t fp = kFnvOffset;
  for (std::size_t vm = 0; vm < streams_.size(); ++vm) {
    const VmStream& stream = *streams_[vm];
    Mix(fp, static_cast<std::uint64_t>(vm));
    Mix(fp, stream.posted());
    Mix(fp, stream.completed());
    Mix(fp, stream.misses());
    Mix(fp, static_cast<std::uint64_t>(stream.max_latency()));
    Mix(fp, stream.fingerprint());
  }
  for (const auto& host : hosts_) {
    const Machine& machine = host->machine();
    Mix(fp, machine.context_switches());
    Mix(fp, machine.schedule_invocations());
  }
  Mix(fp, static_cast<std::uint64_t>(migrations_.size()));
  Mix(fp, resizes_);
  return fp;
}

}  // namespace tableau::fleet
