#include "bench.h"

#include <sys/resource.h>

#include "src/check/table_verifier.h"
#include "src/common/rng.h"
#include "src/rt/edf_sim.h"

namespace perfbench {

namespace {

constexpr int kLookupsPerProbe = 4096;

// Host cost of recording one span (open + close), in ns.
double SpanCostNs() {
  constexpr int kSpans = 100000;
  Tracer scratch(0);
  scratch.set_enabled(true);
  const std::int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    Tracer::Scope span(scratch, "trace.calibration");
  }
  return static_cast<double>(NowNs() - start) / kSpans;
}

}  // namespace

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void SetCommonMetrics(const std::vector<double>& setup_s, const StepSamples& steps,
                      double peak_rss_mb, const Tracer& tracer, Report& report) {
  report.Set("setup_s", Median(setup_s), "s");
  report.Set("step_ms.p50", Quantile(steps.all_ms, 0.5), "ms");
  report.Set("step_ms.p90", Quantile(steps.all_ms, 0.9), "ms");
  const double mean_ms = Mean(steps.all_ms);
  report.Set("steps_per_s", mean_ms == 0 ? 0 : 1e3 / mean_ms, "1/s");
  report.Set("peak_rss_mb", peak_rss_mb, "MiB");
  report.Set("steps", static_cast<double>(steps.all_ms.size()), "count");
  report.Set("setups", static_cast<double>(setup_s.size()), "count");
  // Within-run spread of set-up times (interquartile range over median).
  report.Set("setup_s.spread", QuartileSpread(setup_s), "fraction");
  const double tail = TailQuantile(steps.all_ms.size());
  report.Set("step_ms.tail_quantile", tail, "quantile");
  report.Set("step_ms.tail", Quantile(steps.all_ms, tail), "ms");

  // Tracing overhead, two ways. Direct: the recorder's own cost per span
  // (measured on a scratch recorder) times the spans recorded, as a share of
  // the traced steps' host time. Observed: traced runs alternate traced and
  // untraced episodes; the difference of their step medians (noisy, since
  // the two sets run at different moments).
  const std::size_t spans = tracer.spans().size();
  report.Set("trace.spans", static_cast<double>(spans), "count");
  double traced_total_ms = 0;
  for (const double ms : steps.traced_ms) {
    traced_total_ms += ms;
  }
  report.Set("trace.overhead_pct",
             spans == 0 || traced_total_ms == 0
                 ? 0
                 : 100.0 * static_cast<double>(spans) * SpanCostNs() / 1e6 / traced_total_ms,
             "%");
  const double traced = Median(steps.traced_ms);
  const double untraced = Median(steps.untraced_ms);
  report.Set("trace.step_delta_pct",
             traced == 0 || untraced == 0 ? 0 : 100.0 * (traced / untraced - 1.0), "%");
}

void TableProbes::ProbeTable(const tableau::PlanResult& plan, std::uint64_t seed,
                             Tracer& tracer, Report& report) {
  const tableau::SchedulingTable& table = plan.table;
  {
    const std::int64_t start = NowNs();
    std::string error;
    {
      Tracer::Scope span(tracer, "table.validate");
      error = table.Validate();
    }
    validate_ms.push_back(MsSince(start));
    report.Check(error.empty(), "Validate: " + error);
  }
  {
    tableau::Rng rng(seed);
    std::vector<std::pair<int, tableau::TimeNs>> points(kLookupsPerProbe);
    for (auto& [cpu, offset] : points) {
      cpu = static_cast<int>(rng.UniformInt(0, table.num_cpus() - 1));
      offset = rng.UniformInt(0, table.length() - 1);
    }
    std::int64_t sink = 0;
    const std::int64_t start = NowNs();
    {
      Tracer::Scope span(tracer, "table.lookup");
      for (const auto& [cpu, offset] : points) {
        const tableau::LookupResult hit = table.Lookup(cpu, offset);
        sink += hit.vcpu + hit.interval_end;
      }
    }
    const std::int64_t elapsed = NowNs() - start;
    // Every lookup's interval must end inside the table: keeps `sink` live.
    report.Check(sink > 0, "Lookup returned no interval ends");
    lookup_ns.push_back(static_cast<double>(elapsed) / kLookupsPerProbe);
  }
  {
    const std::int64_t start = NowNs();
    bool schedulable = true;
    {
      Tracer::Scope span(tracer, "rt.edf_sim");
      for (const std::vector<tableau::PeriodicTask>& tasks : plan.core_tasks) {
        if (!tasks.empty()) {
          schedulable = tableau::SimulateEdf(tasks, table.length()).schedulable && schedulable;
        }
      }
    }
    edf_sim_ms.push_back(MsSince(start));
    report.Check(schedulable, "SimulateEdf: a core's task set missed a deadline");
  }
  bytes.push_back(static_cast<double>(table.SerializedSizeBytes()));
}

void TableProbes::SetMetrics(Report& report) const {
  report.Set("table.validate_ms", Mean(validate_ms), "ms");
  report.Set("table.lookup_ns", Mean(lookup_ns), "ns");
  report.Set("rt.edf_sim_ms", Mean(edf_sim_ms), "ms");
  report.Set("table.bytes", Mean(bytes), "bytes");
}

void VerifyPlanInto(const tableau::PlanResult& plan, const tableau::PlannerConfig& config,
                    const std::string& what, Tracer& tracer, Report& report) {
  std::vector<std::string> violations;
  {
    Tracer::Scope span(tracer, "check.verify_plan");
    violations = tableau::check::VerifyPlan(plan, config);
  }
  report.Check(violations.empty(),
               what + ": VerifyPlan: " + (violations.empty() ? "" : violations.front()));
}

}  // namespace perfbench
