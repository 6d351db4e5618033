#include "src/obs/telemetry.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"
#include "src/obs/json.h"

namespace tableau::obs {

Telemetry::Telemetry(Config config) : config_(config) {
  TABLEAU_CHECK(config_.window_ns > 0);
}

void Telemetry::SetVcpuName(int vcpu, std::string name) {
  TABLEAU_CHECK(!bound_);
  if (static_cast<std::size_t>(vcpu) >= vcpu_names_.size()) {
    vcpu_names_.resize(static_cast<std::size_t>(vcpu) + 1);
  }
  vcpu_names_[static_cast<std::size_t>(vcpu)] = std::move(name);
}

void Telemetry::SetVmOf(std::vector<int> vm_of) {
  TABLEAU_CHECK(!bound_);
  vm_of_ = std::move(vm_of);
}

void Telemetry::Bind(int num_cpus, int num_vcpus, bool table_driven,
                     TimeNs start) {
  TABLEAU_CHECK(!bound_);
  bound_ = true;

  if (vm_of_.empty()) {
    vm_of_.resize(static_cast<std::size_t>(num_vcpus));
    for (int i = 0; i < num_vcpus; ++i) {
      vm_of_[static_cast<std::size_t>(i)] = i;
    }
  }
  TABLEAU_CHECK(static_cast<int>(vm_of_.size()) == num_vcpus);
  num_vms_ = 0;
  for (const int vm : vm_of_) {
    num_vms_ = std::max(num_vms_, vm + 1);
  }

  vcpu_names_.resize(static_cast<std::size_t>(num_vcpus));
  for (int i = 0; i < num_vcpus; ++i) {
    auto& name = vcpu_names_[static_cast<std::size_t>(i)];
    if (name.empty()) {
      name = "vcpu" + std::to_string(i);
    }
  }

  recorder_ = std::make_unique<TimeSeriesRecorder>(TimeSeriesRecorder::Options{
      config_.window_ns, config_.window_capacity});
  attributor_.Bind(num_vcpus, table_driven, start);
  SloConfig slo = config_.slo;
  slo.window_ns = config_.window_ns;  // SLO windows share the cadence.
  slo_.Bind(num_vms_, slo);

  const std::string& prefix = config_.series_prefix;
  vantage_ = config_.vantage_vcpus < 0 ? num_vcpus
                                       : std::min(config_.vantage_vcpus, num_vcpus);
  vcpu_series_.resize(static_cast<std::size_t>(vantage_));
  span_hists_.resize(static_cast<std::size_t>(num_vms_));
  for (int i = 0; i < vantage_; ++i) {
    const std::string name =
        prefix + vcpu_names_[static_cast<std::size_t>(i)];
    VcpuSeries& s = vcpu_series_[static_cast<std::size_t>(i)];
    s.demand = recorder_->DefineSeries(name + ".demand_ns");
    s.supply = recorder_->DefineSeries(name + ".supply_ns");
    s.latency = recorder_->DefineSeries(name + ".latency_ns");
    s.misses = recorder_->DefineSeries(name + ".misses");
    auto& hists =
        span_hists_[static_cast<std::size_t>(vm_of_[static_cast<std::size_t>(i)])];
    if (hists == nullptr) {
      hists = std::make_unique<SpanHistograms>();
    }
  }
  cpu_busy_series_.reserve(static_cast<std::size_t>(num_cpus));
  for (int c = 0; c < num_cpus; ++c) {
    cpu_busy_series_.push_back(
        recorder_->DefineSeries(prefix + "cpu" + std::to_string(c) + ".busy_ns"));
  }
  machine_queue_ = recorder_->DefineSeries(prefix + "machine.queue_ns");
  machine_preempt_ = recorder_->DefineSeries(prefix + "machine.preempt_ns");
  machine_blackout_ = recorder_->DefineSeries(prefix + "machine.blackout_ns");
  machine_slip_ = recorder_->DefineSeries(prefix + "machine.slip_ns");
  machine_waiting_ = recorder_->DefineSeries(prefix + "machine.runnable_waiting");
  machine_running_ = recorder_->DefineSeries(prefix + "machine.running");
}

void Telemetry::IngestInterval(int vcpu, const AttributedInterval& interval) {
  if (interval.empty()) {
    return;
  }
  TimeSeriesRecorder::SeriesId machine_series = TimeSeriesRecorder::kNoSeries;
  switch (interval.component) {
    case LatencyComponent::kWakeQueue:
      machine_series = machine_queue_;
      break;
    case LatencyComponent::kPreempt:
      machine_series = machine_preempt_;
      break;
    case LatencyComponent::kBlackout:
      machine_series = machine_blackout_;
      break;
    case LatencyComponent::kSwitchSlip:
      machine_series = machine_slip_;
      break;
    default:
      break;  // Service is ingested via OnServiceRange; blocked is idle.
  }
  if (machine_series == TimeSeriesRecorder::kNoSeries) {
    return;
  }
  recorder_->AddRange(machine_series, interval.from, interval.to);
  if (vcpu < vantage_) {
    recorder_->AddRange(vcpu_series_[static_cast<std::size_t>(vcpu)].demand,
                        interval.from, interval.to);
  }
}

void Telemetry::OnWakeup(int vcpu, TimeNs now) {
  if (!enabled_ || !bound_) {
    return;
  }
  IngestInterval(vcpu, attributor_.OnWakeup(vcpu, now));
}

void Telemetry::OnBlock(int vcpu, TimeNs now) {
  if (!enabled_ || !bound_) {
    return;
  }
  IngestInterval(vcpu, attributor_.OnBlock(vcpu, now));
}

void Telemetry::OnDispatch(int vcpu, TimeNs now) {
  if (!enabled_ || !bound_) {
    return;
  }
  IngestInterval(vcpu, attributor_.OnDispatch(vcpu, now));
}

void Telemetry::OnDeschedule(int vcpu, TimeNs now) {
  if (!enabled_ || !bound_) {
    return;
  }
  IngestInterval(vcpu, attributor_.OnDeschedule(vcpu, now));
}

void Telemetry::OnServiceRange(int vcpu, int cpu, TimeNs from, TimeNs to) {
  if (!enabled_ || !bound_ || to <= from) {
    return;
  }
  if (vcpu < vantage_) {
    const VcpuSeries& s = vcpu_series_[static_cast<std::size_t>(vcpu)];
    recorder_->AddRange(s.supply, from, to);
    recorder_->AddRange(s.demand, from, to);  // Demand = waiting + served.
  }
  recorder_->AddRange(cpu_busy_series_[static_cast<std::size_t>(cpu)], from,
                      to);
}

void Telemetry::OnTableSwitch(TimeNs now, TimeNs slip) {
  if (!enabled_ || !bound_ || slip <= 0) {
    return;
  }
  for (int v = 0; v < attributor_.num_vcpus(); ++v) {
    const SlipSplit split = attributor_.ReattributeSlip(v, now, slip);
    IngestInterval(v, split.head);
    IngestInterval(v, split.tail);
  }
}

void Telemetry::OnCadenceSample(TimeNs at, int runnable_waiting, int running) {
  if (!enabled_ || !bound_) {
    return;
  }
  recorder_->Observe(machine_waiting_, at, runnable_waiting);
  recorder_->Observe(machine_running_, at, running);
}

Telemetry::RequestMark Telemetry::BeginRequest(int vcpu, TimeNs at) const {
  RequestMark mark;
  mark.at = at;
  if (enabled_ && bound_ && DecomposesSpans(vcpu)) {
    mark.totals = attributor_.TotalsAt(vcpu, at);
  }
  return mark;
}

void Telemetry::EndRequest(int vcpu, const RequestMark& mark, TimeNs end,
                           TimeNs network_extra_ns) {
  if (!enabled_ || !bound_) {
    return;
  }
  // The attributor's integer identity: the breakdown below sums to exactly
  // this, so a VM without span histograms needs no breakdown at all.
  const TimeNs latency = (end - mark.at) + network_extra_ns;
  const int vm = vm_of_[static_cast<std::size_t>(vcpu)];
  slo_.Record(vm, end, latency);

  if (vcpu < vantage_) {
    const VcpuSeries& s = vcpu_series_[static_cast<std::size_t>(vcpu)];
    recorder_->Observe(s.latency, end, latency);
    if (latency > slo_.config().target_latency_ns) {
      recorder_->Observe(s.misses, end, 1);
    }
  }
  if (!DecomposesSpans(vcpu)) {
    return;
  }
  LatencyBreakdown breakdown = attributor_.TotalsAt(vcpu, end) - mark.totals;
  breakdown[LatencyComponent::kNetwork] += network_extra_ns;
  if (SpanHistograms* hists = span_hists_[static_cast<std::size_t>(vm)].get()) {
    for (int c = 0; c < kNumLatencyComponents; ++c) {
      hists->components[static_cast<std::size_t>(c)].Record(
          breakdown.ns[static_cast<std::size_t>(c)]);
    }
    hists->latency.Record(latency);
  }
  if (span_observer_) {
    span_observer_(vcpu, mark.at, end, breakdown);
  }
}

TimeSeriesSnapshot Telemetry::TimeSeries() const {
  if (recorder_ == nullptr) {
    return TimeSeriesSnapshot{};
  }
  return recorder_->Snapshot();
}

HistogramValue Telemetry::AttributionHistogram(int vm,
                                               LatencyComponent c) const {
  const SpanHistograms* hists = span_hists_[static_cast<std::size_t>(vm)].get();
  return hists == nullptr
             ? HistogramValue{}
             : hists->components[static_cast<std::size_t>(c)].ToValue();
}

HistogramValue Telemetry::RequestLatencyHistogram(int vm) const {
  const SpanHistograms* hists = span_hists_[static_cast<std::size_t>(vm)].get();
  return hists == nullptr ? HistogramValue{} : hists->latency.ToValue();
}

namespace {

std::string Pad(int indent) {
  return std::string(static_cast<std::size_t>(indent), ' ');
}

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

std::string HistJson(const HistogramValue& h) {
  return "{\"count\": " + std::to_string(h.count) +
         ", \"sum\": " + std::to_string(h.sum) +
         ", \"min\": " + std::to_string(h.min) +
         ", \"max\": " + std::to_string(h.max) +
         ", \"mean\": " + Num(h.Mean()) +
         ", \"p50\": " + std::to_string(h.Percentile(0.5)) +
         ", \"p99\": " + std::to_string(h.Percentile(0.99)) + "}";
}

}  // namespace

std::string Telemetry::ToJson(int indent) const {
  const std::string p0 = Pad(indent);
  const std::string p1 = Pad(indent + 2);
  const std::string p2 = Pad(indent + 4);
  const std::string p3 = Pad(indent + 6);
  std::string out = "{\n";
  out += p1 + "\"schema_version\": \"" + kSchemaVersion + "\",\n";

  out += p1 + "\"slo\": {";
  for (int vm = 0; vm < num_vms_; ++vm) {
    const SloVerdict v = slo_.VerdictFor(vm);
    out += vm == 0 ? "\n" : ",\n";
    out += p2 + "\"vm" + std::to_string(vm) + "\": {";
    out += "\"requests\": " + std::to_string(v.requests);
    out += ", \"misses\": " + std::to_string(v.misses);
    out += ", \"attainment\": " + Num(v.attainment);
    out += ", \"slo_met\": " + std::string(v.slo_met ? "true" : "false");
    out += ", \"burn_rate\": " + Num(v.burn_rate);
    out += ", \"windows_closed\": " + std::to_string(v.windows_closed);
    out += ", \"windows_over_budget\": " +
           std::to_string(v.windows_over_budget);
    out += ", \"longest_streak\": " + std::to_string(v.longest_streak);
    out += ", \"burst_detected\": " +
           std::string(v.burst_detected ? "true" : "false");
    out += "}";
  }
  out += num_vms_ == 0 ? "},\n" : "\n" + p1 + "},\n";

  out += p1 + "\"attribution\": {";
  bool first = true;
  for (int vm = 0; vm < num_vms_; ++vm) {
    if (span_hists_[static_cast<std::size_t>(vm)] == nullptr) {
      continue;
    }
    out += first ? "\n" : ",\n";
    first = false;
    out += p2 + "\"vm" + std::to_string(vm) + "\": {\n";
    out += p3 + "\"latency\": " + HistJson(RequestLatencyHistogram(vm));
    for (int c = 0; c < kNumLatencyComponents; ++c) {
      const auto component = static_cast<LatencyComponent>(c);
      out += ",\n" + p3 + "\"" + LatencyComponentName(component) +
             "\": " + HistJson(AttributionHistogram(vm, component));
    }
    out += "\n" + p2 + "}";
  }
  out += first ? "},\n" : "\n" + p1 + "},\n";

  out += p1 + "\"timeseries\": " + TimeSeries().ToJson(indent + 2) + "\n";
  out += p0 + "}";
  return out;
}

}  // namespace tableau::obs
