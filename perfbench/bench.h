// Shared pieces of the benchmark's workloads: run options, the report every
// workload fills, and the table probes both the planner and the fleet
// workloads apply to the tables they produce.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/planner.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // Host-time budget of the measured loop.
  bool trace = false;
  int worker_threads = 1;  // fleet_parallel's executor threads.
};

struct Metric {
  double value = 0;
  std::string unit;
};

// What one workload run measured. Metrics are keyed by name; main()
// selects which of them the final result line carries.
struct Report {
  std::map<std::string, Metric> metrics;
  OpTally ops;
  std::vector<std::string> violations;  // First few failure descriptions.

  void Set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  // Counts one checked operation; a failed one keeps its description.
  bool Check(bool ok, const std::string& what) {
    if (!ops.Record(ok)) {
      Describe(what);
    }
    return ok;
  }
  // Counts `attempted` operations of which `failed` failed.
  void CheckMany(std::int64_t attempted, std::int64_t failed, const std::string& what) {
    ops.Add(attempted, failed);
    if (failed > 0) {
      Describe(std::to_string(failed) + " " + what);
    }
  }

 private:
  void Describe(const std::string& what) {
    if (violations.size() < 20) {
      violations.push_back(what);
    }
  }
};

inline double MsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

// Host-time step samples of a run, split by whether tracing was on during
// the step (traced runs alternate, so the two sets give tracing overhead).
struct StepSamples {
  std::vector<double> all_ms;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;

  void Add(double ms, bool traced) {
    all_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
  }
};

// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

// Fills the end-to-end metrics every workload reports (setup_s,
// step_ms.p50/.p90, steps_per_s, peak_rss_mb) and the tracing-overhead layer
// metrics. `peak_rss_mb` is sampled after the first episode: later episodes
// repeat the same work, and how many of them fit in the budget is a matter
// of timing, which must not move a memory metric.
void SetCommonMetrics(const std::vector<double>& setup_s, const StepSamples& steps,
                      double peak_rss_mb, const Tracer& tracer, Report& report);

// Per-layer probes of one produced table (traced runs only):
// SchedulingTable::Validate, Lookup at seeded (cpu, offset) pairs,
// SimulateEdf over every shared core's task set, and the serialized size.
struct TableProbes {
  std::vector<double> validate_ms;
  std::vector<double> lookup_ns;
  std::vector<double> edf_sim_ms;
  std::vector<double> bytes;

  void ProbeTable(const tableau::PlanResult& plan, std::uint64_t seed, Tracer& tracer,
                  Report& report);
  void SetMetrics(Report& report) const;
};

// Checks a successful plan against its own reservation contract
// (check::VerifyPlan), spanned as check.verify_plan.
void VerifyPlanInto(const tableau::PlanResult& plan, const tableau::PlannerConfig& config,
                    const std::string& what, Tracer& tracer, Report& report);

void RunPlanFull(const RunOptions& options, Tracer& tracer, Report& report);
void RunPlanChurn(const RunOptions& options, Tracer& tracer, Report& report);
void RunFleetSteady(const RunOptions& options, Tracer& tracer, Report& report);
void RunFleetParallel(const RunOptions& options, Tracer& tracer, Report& report);
void RunFleetAdaptive(const RunOptions& options, Tracer& tracer, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
