// VmStream: one fleet VM's workload — a wrk2-style constant-rate open-loop
// request stream (latency measured from the *intended* arrival grid, so
// Coordinated Omission cannot hide queueing or migration downtime) executed
// on whichever host slot the control plane currently places the VM on.
//
// The stream follows the VM across a live migration: Pause() stops new
// arrivals on the source (in-flight FIFO work keeps running until drained),
// Activate() rebinds to the destination slot and catches up the arrival
// grid — every grid point k gets exactly one request, so no request span is
// lost across the drain, and the downtime shows up as tail latency on the
// caught-up requests instead of disappearing.
#ifndef SRC_FLEET_VM_STREAM_H_
#define SRC_FLEET_VM_STREAM_H_

#include <cstdint>

#include "src/common/ring_queue.h"
#include "src/common/time.h"
#include "src/hypervisor/machine.h"
#include "src/obs/telemetry.h"
#include "src/workloads/guest.h"

namespace tableau::fleet {

// Time-varying per-request cost profile. Cost is a pure function of the
// request's *intended* arrival time, so the demand curve is identical in
// every execution mode and across migrations.
enum class DemandShape {
  kConstant,
  // Triangle wave: the service-cost multiplier ramps shape_min -> shape_max
  // over half of shape_period and back, phase-shifted by shape_phase. The
  // deterministic stand-in for diurnal tenant load.
  kDiurnal,
};

// One VM's reservation and workload shape in the cluster's arrival stream.
struct VmReservation {
  int vm = 0;  // Fleet-global VM id.
  double utilization = 0.25;
  TimeNs latency_goal = 20 * kMillisecond;
  // Open-loop request stream: constant-rate grid, fixed CPU per request.
  double requests_per_sec = 200;
  TimeNs service_ns = 500 * kMicrosecond;
  // When the VM enters the cluster's admission queue.
  TimeNs arrival = 0;
  // Scripted overload: requests intended in [surge_at, surge_until) cost
  // service_ns * surge_factor — an open-ended surge (the default) drives
  // the migration path; a bounded one models a flash crowd the adaptive
  // controller must absorb and then give back.
  TimeNs surge_at = kTimeNever;
  TimeNs surge_until = kTimeNever;
  double surge_factor = 1.0;
  // Demand shape multiplier stacked under the surge factor.
  DemandShape shape = DemandShape::kConstant;
  TimeNs shape_period = kSecond;
  TimeNs shape_phase = 0;
  double shape_min = 1.0;
  double shape_max = 1.0;
};

class VmStream {
 public:
  explicit VmStream(const VmReservation& spec) : spec_(spec) {}

  const VmReservation& spec() const { return spec_; }

  // Binds the stream to a host slot and starts (or resumes) the arrival
  // grid at `at`. The first activation anchors the grid; later activations
  // (after a migration) keep the anchor and catch up overdue grid points.
  // Call from the destination shard's event context or at a barrier.
  void Activate(Machine* machine, WorkQueueGuest* guest, obs::Telemetry* telemetry,
                int slot, TimeNs at);

  // Stops new arrivals (drain begins). In-flight requests keep running;
  // Drained() turns true once the last completion lands.
  void Pause();

  bool active() const { return !paused_ && machine_ != nullptr; }
  bool Drained() const { return completed_ == posted_; }

  // --- Fleet-level SLO accounting (follows the VM across hosts) ---
  std::uint64_t posted() const { return posted_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t misses() const { return misses_; }  // latency > latency_goal.
  // Next unposted grid index; posted() == next_k once caught up, so the
  // grid has no holes (span-conservation invariant).
  std::uint64_t next_k() const { return next_k_; }
  TimeNs max_latency() const { return max_latency_; }
  // FNV-1a over every completion's (k, latency) in completion order —
  // the per-VM determinism fingerprint.
  std::uint64_t fingerprint() const { return fp_; }

 private:
  TimeNs Intended(std::uint64_t k) const;
  void OnTick();
  void PostRequest(std::uint64_t k);
  void OnRequestDone(TimeNs done);

  VmReservation spec_;
  Machine* machine_ = nullptr;
  WorkQueueGuest* guest_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;
  int slot_ = -1;
  // Whether the current placement's telemetry decomposes this VM's spans.
  bool decomposes_ = false;
  EventId pacer_ = kInvalidEvent;
  bool anchored_ = false;
  bool paused_ = true;
  TimeNs anchor_ = 0;
  TimeNs period_ = 0;
  std::uint64_t next_k_ = 0;
  std::uint64_t posted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t misses_ = 0;
  // The guest FIFO completes a stream's requests in posting order, and a
  // migration's drain completes them all before the stream is reactivated,
  // so the completing request is always grid index `completed_`, posted on
  // the current placement: its intended time needs no per-request state,
  // and the guest callback captures only `this`. Only when the telemetry
  // decomposes spans does each in-flight request keep its attributor
  // totals from arrival, in posting order.
  RingQueue<obs::LatencyBreakdown> span_totals_;
  TimeNs max_latency_ = 0;
  std::uint64_t fp_ = 1469598103934665603ull;
};

}  // namespace tableau::fleet

#endif  // SRC_FLEET_VM_STREAM_H_
