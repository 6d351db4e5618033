// Telemetry bundle: wires the windowed TimeSeriesRecorder, the causal
// LatencyAttributor, the per-VM SloTracker, and the vantage VMs' span
// histograms behind the single pointer Machine carries. All hooks are pure
// observers (no simulation events, no feedback into scheduling) and — after
// Bind, apart from the time-series block the first sample lays out —
// zero-allocation, so a run with telemetry attached is bit-identical to one
// without (proved by tests/telemetry_test.cc fingerprint checks and
// `tableau obs --check-determinism`).
//
// Lifecycle: construct with a Config, optionally SetVcpuName/SetVmOf, then
// Machine::Start calls Bind once vCPU/pCPU counts are known. Machine drives
// the On* hooks from its trace points; workloads bracket each guest request
// with BeginRequest/EndRequest. Export via TimeSeries() or the
// VerdictFor-backed JSON.
#ifndef SRC_OBS_TELEMETRY_H_
#define SRC_OBS_TELEMETRY_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/obs/attribution.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/timeseries.h"

namespace tableau::obs {

class Telemetry {
 public:
  struct Config {
    TimeNs window_ns = 10 * kMillisecond;
    int window_capacity = 256;
    SloConfig slo;
    // vCPU ids below vantage_vcpus are vantage vCPUs (they come first in
    // every scenario); -1 = all, 0 = none. A vantage vCPU gets the four
    // per-vCPU series, and its VM gets span histograms (end-to-end latency
    // plus the seven attribution components). Every other VM keeps only its
    // SLO verdict. Machine-wide and per-pCPU series are always created.
    int vantage_vcpus = -1;
    // Prepended to every series name (e.g. "capped.tableau.io_bg."), so
    // telemetry from many bench cells can merge into one snapshot without
    // colliding.
    std::string series_prefix;
  };

  // Captured at request arrival; EndRequest subtracts it from the totals at
  // completion, which decomposes the span exactly (attribution.h).
  struct RequestMark {
    TimeNs at = 0;
    LatencyBreakdown totals;
  };

  Telemetry() : Telemetry(Config{}) {}
  explicit Telemetry(Config config);

  // --- Setup (before Bind) ---
  void SetVcpuName(int vcpu, std::string name);
  // Maps vCPU id -> VM id for SLO tracking and attribution histograms;
  // defaults to identity (every vCPU its own VM).
  void SetVmOf(std::vector<int> vm_of);
  // Test hook: called at every EndRequest with the exact span breakdown,
  // for every VM (vantage or not).
  using SpanObserver = std::function<void(int vcpu, TimeNs start, TimeNs end,
                                          const LatencyBreakdown& breakdown)>;
  void set_span_observer(SpanObserver observer) {
    span_observer_ = std::move(observer);
  }

  // Master switch: disabling turns every hook into an immediate return
  // (state retained, nothing recorded).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Allocates all recording state; called by Machine::Start. `table_driven`
  // classifies runnable-descheduled time (blackout vs preempt).
  void Bind(int num_cpus, int num_vcpus, bool table_driven, TimeNs start);
  bool bound() const { return bound_; }

  // --- Machine hooks (hot path, zero allocation after the first sample) ---
  void OnWakeup(int vcpu, TimeNs now);
  void OnBlock(int vcpu, TimeNs now);
  void OnDispatch(int vcpu, TimeNs now);
  void OnDeschedule(int vcpu, TimeNs now);
  // One contiguous slice of granted service on `cpu` (from SettleService).
  void OnServiceRange(int vcpu, int cpu, TimeNs from, TimeNs to);
  // Table switch committed `slip` ns late: re-attributes the tail of every
  // waiting vCPU's current wait to kSwitchSlip.
  void OnTableSwitch(TimeNs now, TimeNs slip);
  // Deterministic cadence sample taken by Machine::RunFor at every window
  // boundary: instantaneous runnable-waiting and running vCPU counts.
  void OnCadenceSample(TimeNs at, int runnable_waiting, int running);

  // First window boundary strictly after `t` (Machine::RunFor chunking).
  TimeNs NextBoundaryAfter(TimeNs t) const {
    return (t / config_.window_ns + 1) * config_.window_ns;
  }
  TimeNs window_ns() const { return config_.window_ns; }

  // --- Workload span hooks ---
  // Whether EndRequest decomposes spans of `vcpu` into components: a
  // vantage VM's, or every VM's once a span observer is set.
  bool DecomposesSpans(int vcpu) const {
    const int vm = vm_of_[static_cast<std::size_t>(vcpu)];
    return span_observer_ || span_hists_[static_cast<std::size_t>(vm)] != nullptr;
  }
  // Captures the attributor totals only when EndRequest will decompose the
  // span; otherwise just `at`.
  RequestMark BeginRequest(int vcpu, TimeNs at) const;
  // Completes a span: end-to-end latency is (end - mark.at) +
  // network_extra_ns, recorded against the VM's SLO. For a vantage VM the
  // component breakdown, which sums to exactly that latency, also goes into
  // its span histograms. `network_extra_ns` covers the wire legs outside
  // the machine.
  void EndRequest(int vcpu, const RequestMark& mark, TimeNs end,
                  TimeNs network_extra_ns);

  // --- Export ---
  int num_vms() const { return num_vms_; }
  const SloTracker& slo() const { return slo_; }
  const LatencyAttributor& attributor() const { return attributor_; }
  TimeSeriesSnapshot TimeSeries() const;
  // Span histograms of a vantage VM; empty for any other VM.
  HistogramValue AttributionHistogram(int vm, LatencyComponent c) const;
  HistogramValue RequestLatencyHistogram(int vm) const;
  // {"schema_version", "slo": {vm: verdict...}, "attribution": {vantage vm:
  // {component: histogram summary...}}, "timeseries": {...}}.
  std::string ToJson(int indent = 0) const;

 private:
  struct VcpuSeries {
    TimeSeriesRecorder::SeriesId demand = TimeSeriesRecorder::kNoSeries;
    TimeSeriesRecorder::SeriesId supply = TimeSeriesRecorder::kNoSeries;
    TimeSeriesRecorder::SeriesId latency = TimeSeriesRecorder::kNoSeries;
    TimeSeriesRecorder::SeriesId misses = TimeSeriesRecorder::kNoSeries;
  };

  // One vantage VM's span histograms.
  struct SpanHistograms {
    LatencyHistogram latency;
    std::array<LatencyHistogram, kNumLatencyComponents> components;
  };

  // Routes a settled waiting/service interval into the machine-wide
  // component series and a vantage vCPU's demand series.
  void IngestInterval(int vcpu, const AttributedInterval& interval);

  Config config_;
  bool enabled_ = true;
  bool bound_ = false;
  int num_vms_ = 0;

  std::vector<std::string> vcpu_names_;
  std::vector<int> vm_of_;

  std::unique_ptr<TimeSeriesRecorder> recorder_;
  LatencyAttributor attributor_;
  SloTracker slo_;

  // vCPU ids below vantage_ are vantage vCPUs; only they have per-vCPU
  // series, so each hook skips the rest with this one comparison.
  int vantage_ = 0;
  std::vector<VcpuSeries> vcpu_series_;  // Indexed by vantage vCPU id.
  std::vector<TimeSeriesRecorder::SeriesId> cpu_busy_series_;
  TimeSeriesRecorder::SeriesId machine_queue_ = TimeSeriesRecorder::kNoSeries;
  TimeSeriesRecorder::SeriesId machine_preempt_ =
      TimeSeriesRecorder::kNoSeries;
  TimeSeriesRecorder::SeriesId machine_blackout_ =
      TimeSeriesRecorder::kNoSeries;
  TimeSeriesRecorder::SeriesId machine_slip_ = TimeSeriesRecorder::kNoSeries;
  TimeSeriesRecorder::SeriesId machine_waiting_ =
      TimeSeriesRecorder::kNoSeries;
  TimeSeriesRecorder::SeriesId machine_running_ =
      TimeSeriesRecorder::kNoSeries;

  // Indexed by VM; null for a VM with no vantage vCPU.
  std::vector<std::unique_ptr<SpanHistograms>> span_hists_;

  SpanObserver span_observer_;
};

}  // namespace tableau::obs

#endif  // SRC_OBS_TELEMETRY_H_
