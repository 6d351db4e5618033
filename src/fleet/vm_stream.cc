#include "src/fleet/vm_stream.h"

#include <algorithm>

#include "src/common/check.h"

namespace tableau::fleet {
namespace {

inline void Mix(std::uint64_t& fp, std::uint64_t value) {
  fp = (fp ^ value) * 1099511628211ull;
}

}  // namespace

TimeNs VmStream::Intended(std::uint64_t k) const {
  return anchor_ + static_cast<TimeNs>(k) * period_;
}

void VmStream::Activate(Machine* machine, WorkQueueGuest* guest,
                        obs::Telemetry* telemetry, int slot, TimeNs at) {
  TABLEAU_CHECK(machine != nullptr && guest != nullptr);
  TABLEAU_CHECK(Drained());  // Rebound only once drained.
  machine_ = machine;
  guest_ = guest;
  telemetry_ = telemetry;
  slot_ = slot;
  decomposes_ = telemetry_ != nullptr && telemetry_->DecomposesSpans(slot_);
  if (!anchored_) {
    anchored_ = true;
    anchor_ = at;
    period_ = static_cast<TimeNs>(static_cast<double>(kSecond) / spec_.requests_per_sec);
    TABLEAU_CHECK(period_ > 0);
  }
  paused_ = false;
  // One persistent pacer per placement, on the current host's engine.
  pacer_ = machine_->sim().CreateTimer([this] { OnTick(); });
  machine_->sim().Arm(pacer_, std::max(at, machine_->Now()));
}

void VmStream::Pause() {
  paused_ = true;
  if (machine_ != nullptr && pacer_ != kInvalidEvent) {
    machine_->sim().Disarm(pacer_);
    pacer_ = kInvalidEvent;
  }
}

void VmStream::OnTick() {
  if (paused_) {
    return;
  }
  const TimeNs now = machine_->Now();
  // Catch up the grid: after a migration several intended times are in the
  // past; each still gets exactly one request (posted back-to-back into the
  // guest FIFO), so downtime becomes latency, not lost spans.
  while (Intended(next_k_) <= now) {
    PostRequest(next_k_);
    ++next_k_;
  }
  machine_->sim().Arm(pacer_, Intended(next_k_));
}

void VmStream::PostRequest(std::uint64_t k) {
  const TimeNs intended = Intended(k);
  double cost = static_cast<double>(spec_.service_ns);
  if (spec_.shape == DemandShape::kDiurnal && spec_.shape_period > 0) {
    // Triangle wave over the intended-arrival clock: position in the period
    // maps to a multiplier ramping shape_min -> shape_max -> shape_min.
    const TimeNs pos = (intended + spec_.shape_phase) % spec_.shape_period;
    const double frac =
        static_cast<double>(pos) / static_cast<double>(spec_.shape_period);
    const double tri = frac < 0.5 ? 2.0 * frac : 2.0 * (1.0 - frac);
    cost *= spec_.shape_min + (spec_.shape_max - spec_.shape_min) * tri;
  }
  if (intended >= spec_.surge_at && intended < spec_.surge_until) {
    cost *= spec_.surge_factor;
  }
  const TimeNs service = static_cast<TimeNs>(cost);
  if (decomposes_) {
    span_totals_.PushBack(telemetry_->BeginRequest(slot_, intended).totals);
  }
  ++posted_;
  guest_->Post(service, [this](TimeNs done) { OnRequestDone(done); });
}

void VmStream::OnRequestDone(TimeNs done) {
  obs::Telemetry::RequestMark mark;
  mark.at = Intended(completed_);
  const TimeNs latency = done - mark.at;
  if (telemetry_ != nullptr) {
    if (decomposes_) {
      mark.totals = span_totals_.PopFront();
    }
    telemetry_->EndRequest(slot_, mark, done, /*network_extra_ns=*/0);
  }
  if (latency > spec_.latency_goal) {
    ++misses_;
  }
  max_latency_ = std::max(max_latency_, latency);
  Mix(fp_, completed_);  // This request's grid index k.
  Mix(fp_, static_cast<std::uint64_t>(latency));
  ++completed_;
}

}  // namespace tableau::fleet
