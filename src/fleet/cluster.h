// fleet::Cluster: a deterministic multi-host simulation plus the control
// plane that places and migrates VMs across it (api_redesign; ROADMAP
// "from one box to a datacenter").
//
// Execution model: every host's Machine owns its engine, and each engine is
// one shard of the cluster's ShardedSimulation, a barrier over those
// engines. Hosts meet only at control ticks: RunUntil runs every host to the
// next tick (one barrier), and the tick posts the cross-host events (VM
// arrival activations, live-migration transfers) through
// ShardedSimulation::Post for the next barrier to inject. The run is
// therefore byte-reproducible whether the barrier runs the engines one after
// another or on worker threads (the determinism argument in
// src/sim/sharded_sim.h; asserted by tests/fleet_test.cc and
// `tableau fleet run --check-determinism`).
//
// Control plane: at every control tick (a barrier whose period equals the
// telemetry window), the cluster — in deterministic host/VM order —
//  1. completes in-flight migrations whose source drain finished: the
//     source replans with the vCPU departed, the destination admits the
//     reservation through Planner::Solve's delta path, and the stream's
//     activation is posted to the destination shard after the transfer
//     delay;
//  2. detects overloaded VMs from each host's telemetry SLO tracker
//     (SloTracker::VerdictFor: burn rate + over-budget streak) and starts a
//     drain;
//  3. admits newly arrived VM reservations onto hosts by worst-fit or
//     first-fit bin packing over committed utilization.
#ifndef SRC_FLEET_CLUSTER_H_
#define SRC_FLEET_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/fleet/host.h"
#include "src/fleet/vm_stream.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/sim/sharded_sim.h"

namespace tableau::fleet {

enum class PlacementPolicy { kWorstFit, kFirstFit };

struct ClusterConfig {
  int num_hosts = 1;
  // Per-host template; index is set per host.
  HostConfig host;
  // Execution mode: serial or parallel barriers (byte-identical results).
  ShardedSimulation::Options sim;
  // Control tick period. Must equal the hosts' telemetry window (cadence
  // samples land on tick barriers).
  TimeNs control_period = 10 * kMillisecond;
  PlacementPolicy placement = PlacementPolicy::kWorstFit;
  // Admission cap: a host's committed utilization may not exceed this
  // fraction of its core count.
  double max_committed = 0.9;
  // Placement-RPC latency from admission decision to stream activation on
  // the target host.
  TimeNs admission_latency = 200 * kMicrosecond;
  // Overload detection thresholds: migrate when a VM's SLO burn rate is at
  // or above the threshold with a detected burst streak, after at least
  // min_requests completions. Each VM migrates at most once.
  double migrate_burn_threshold = 1.5;
  std::uint64_t min_requests_before_migration = 50;
  // The VM arrival stream (admitted in arrival order; ties by vm id).
  std::vector<VmReservation> vms;
};

class Cluster {
 public:
  // Per-VM control-plane view (tests and the describe CLI).
  struct VmState {
    enum class Status { kPending, kActive, kDraining, kRejected };
    Status status = Status::kPending;
    int host = -1;
    int slot = -1;
    int migrations = 0;
  };

  struct MigrationRecord {
    int vm = -1;
    int from = -1;
    int to = -1;
    TimeNs drain_started = 0;
    TimeNs transferred = 0;  // Drain-complete barrier time.
  };

  // Fleet-wide SLO attainment, aggregated over the VM streams (mode- and
  // placement-independent accounting that follows each VM across hosts).
  struct SloSummary {
    std::uint64_t requests = 0;
    std::uint64_t misses = 0;
    double attainment = 1.0;
    double worst_vm_attainment = 1.0;
    int vms_admitted = 0;
    int vms_rejected = 0;
  };

  explicit Cluster(const ClusterConfig& config);

  const ClusterConfig& config() const { return config_; }
  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  Host& host(int i) { return *hosts_[static_cast<std::size_t>(i)]; }
  ShardedSimulation& sim() { return sim_; }
  TimeNs Now() const { return sim_.Now(); }

  // Starts every host's machine (binding telemetry) and runs the t=0
  // control tick (arrivals due at time zero are admitted here).
  void Start();

  // Advances all hosts to `until`, running control ticks at every
  // control_period barrier on the way.
  void RunUntil(TimeNs until);

  // --- Export (deterministic host order; identical across exec modes) ---
  obs::MetricsSnapshot MergedMetrics();
  obs::TimeSeriesSnapshot MergedTimeSeries() const;
  SloSummary Slo() const;
  // FNV-1a over every VM stream's request history and every host's
  // scheduler counters — the whole-fleet determinism fingerprint.
  std::uint64_t Fingerprint() const;

  const VmState& vm_state(int vm) const {
    return vm_state_[static_cast<std::size_t>(vm)];
  }
  const VmStream& stream(int vm) const {
    return *streams_[static_cast<std::size_t>(vm)];
  }
  const std::vector<MigrationRecord>& migrations() const { return migrations_; }
  std::uint64_t control_ticks() const { return control_ticks_; }

  // --- Adaptive reservations (host.adaptive) ---
  // Total controller-issued resizes installed across all hosts.
  std::uint64_t resizes() const { return resizes_; }
  // Mean of (fleet committed utilization / fleet core count) sampled at
  // every control tick after the adapt phase — the packing-density metric
  // bench_adaptive compares elastic vs static on.
  double AvgCommittedFraction() const;

 private:
  void ControlTick(TimeNs now);
  void CompleteDrains(TimeNs now);
  void DetectOverloads(TimeNs now);
  void AdmitArrivals(TimeNs now);
  void AdaptReservations(TimeNs now);
  // Best host for `utilization` under the placement policy, or -1.
  // `exclude` skips one host (migration source).
  int PickHost(double utilization, int exclude) const;
  void ActivateOn(int vm, int host, int slot, TimeNs at);

  ClusterConfig config_;
  // Declared before sim_, so the barrier's worker pool is joined before the
  // hosts' engines are destroyed.
  std::vector<std::unique_ptr<Host>> hosts_;
  ShardedSimulation sim_;
  std::vector<std::unique_ptr<VmStream>> streams_;  // Indexed by vm id.
  std::vector<VmState> vm_state_;
  std::vector<int> arrival_order_;  // vm ids sorted by (arrival, vm).
  std::size_t next_arrival_ = 0;
  std::vector<MigrationRecord> migrations_;
  std::vector<MigrationRecord> draining_;  // In-flight (drain phase).
  TimeNs next_tick_ = 0;
  std::uint64_t control_ticks_ = 0;
  std::uint64_t resizes_ = 0;
  double committed_fraction_sum_ = 0;
  std::uint64_t committed_samples_ = 0;
  bool started_ = false;
};

}  // namespace tableau::fleet

#endif  // SRC_FLEET_CLUSTER_H_
