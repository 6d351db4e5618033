// tableau_perfbench: the repository benchmark. One process runs one
// workload for a fixed host-time budget, checks its outputs, prints every
// metric it measured by name and unit, and ends with one JSON result line.
//
//   tableau_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--trace-out <file>]
//
// --trace 0 reports the end-to-end metrics (kEndToEnd); --trace 1 records a
// span around every library call, reports the per-layer metrics
// (kPerLayer) and writes the spans to --trace-out. perfbench/README.md
// describes the workloads, the two clocks and how to read a traced run.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json at the repository root.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"step_ms.p50", "ms"},
    {"step_ms.p90", "ms"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.solves", "count"},
    {"core.solve_failures", "count"},
    {"core.delta_dirty_cores.mean", "fraction"},
    {"core.phase.partition_ms", "ms"},
    {"core.phase.edf_core_sim_ms", "ms"},
    {"core.phase.cd_split_ms", "ms"},
    {"core.phase.cluster_ms", "ms"},
    {"core.phase.coalesce_ms", "ms"},
    {"core.phase.total_ms", "ms"},
    {"core.admission.analytic_fraction", "fraction"},
    {"core.incremental_plans", "count"},
    {"table.validate_ms", "ms"},
    {"table.lookup_ns", "ns"},
    {"table.bytes", "bytes"},
    {"rt.edf_sim_ms", "ms"},
    {"fleet.construct_ms", "ms"},
    {"fleet.cold_construct_ms", "ms"},
    {"fleet.start_ms", "ms"},
    {"fleet.tick_ms.p50", "ms"},
    {"fleet.tick_ms.p90", "ms"},
    {"fleet.tick_ms.max", "ms"},
    {"fleet.control_ticks", "count"},
    {"fleet.migrations", "count"},
    {"sim_rate", "sim_s/s"},
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.epochs", "count"},
    {"sim.host_us_per_epoch", "us"},
    {"machine.schedule_invocations", "count"},
    {"machine.context_switches", "count"},
    {"machine.overhead_ns", "ns"},
    {"tableau.table_switches", "count"},
    {"slo_attainment", "fraction"},
    {"worst_vm_attainment", "fraction"},
    {"dispatch_latency_p99_us", "us"},
    {"vms_admitted", "count"},
    {"committed_fraction", "fraction"},
    {"streams.requests_posted", "count"},
    {"streams.requests_completed", "count"},
    {"obs.export_ms", "ms"},
    {"obs.snapshot_bytes", "bytes"},
    {"adapt.grows", "count"},
    {"adapt.shrinks", "count"},
    {"adapt.commits", "count"},
    {"adapt.rejects", "count"},
    {"adapt.commit_ratio", "fraction"},
    {"adapt.resize_tick_ms.p50", "ms"},
    {"failed_fraction", "fraction"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.step_delta_pct", "%"},
};

using WorkloadFn = void (*)(const RunOptions&, Tracer&, Report&);

struct Workload {
  const char* name;
  WorkloadFn run;
};

constexpr Workload kWorkloads[] = {
    {"plan_full", RunPlanFull},           {"plan_churn", RunPlanChurn},
    {"fleet_steady", RunFleetSteady},     {"fleet_adaptive", RunFleetAdaptive},
    {"fleet_parallel", RunFleetParallel},
};

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// nproc, compiler, build type and worker threads: what a number needs to be
// compared with another.
std::string HostFingerprint(const RunOptions& options) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "{\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"optimized\": %s, \"worker_threads\": %d, \"workload\": \"%s\", "
                "\"seed\": %" PRIu64 ", \"seconds\": %g}",
                std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE,
                kOptimized ? "true" : "false", options.worker_threads,
                options.workload.c_str(), options.seed, options.seconds);
  return buffer;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: tableau_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n"
               "workloads: plan_full plan_churn fleet_steady fleet_adaptive "
               "fleet_parallel\n",
               message);
  return 2;
}

void PrintSpanTable(const Tracer& tracer) {
  std::printf("\n%-28s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, totals] : tracer.Summarize()) {
    std::printf("%-28s %10lld %12.3f %12.3f\n", name.c_str(),
                static_cast<long long>(totals.count), totals.total_ms, totals.self_ms);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string trace_out;
  // fleet_parallel's executor gets half the cores (at most 2): its epoch
  // barriers wait for the slowest worker, so a worker preempted by any other
  // process on the machine stalls every shard.
  const unsigned hw = std::thread::hardware_concurrency();
  options.worker_threads = static_cast<int>(std::clamp(hw / 2, 1u, 2u));
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  WorkloadFn run = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) {
      run = w.run;
    }
  }
  if (run == nullptr) {
    return Usage("unknown or missing --workload");
  }
  if (options.seconds <= 0) {
    return Usage("--seconds must be positive");
  }

  const std::string host = HostFingerprint(options);
  std::printf("host %s\n", host.c_str());
  if (!kOptimized) {
    std::fprintf(stderr,
                 "REFUSED: tableau_perfbench was built without optimization "
                 "(build type %s); its timings are not comparable. Rebuild with "
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo or Release.\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  // Spans of one run share this id.
  const std::uint64_t run_id =
      (static_cast<std::uint64_t>(NowNs()) * 0x9e3779b97f4a7c15ull) ^ options.seed;
  Tracer tracer(run_id);
  Report report;
  run(options, tracer, report);
  report.Set("failed_fraction", report.ops.FailedFraction(), "fraction");

  std::printf("\nworkload %s, seed %" PRIu64 ", %s run\n", options.workload.c_str(),
              options.seed, options.trace ? "traced" : "untraced");
  for (const auto& [name, metric] : report.metrics) {
    std::printf("metric %-36s %16.6f %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const std::string& violation : report.violations) {
    std::printf("VIOLATION %s\n", violation.c_str());
  }
  if (options.trace) {
    PrintSpanTable(tracer);
    if (!trace_out.empty()) {
      if (tracer.WriteChromeTrace(trace_out, host)) {
        std::printf("trace written to %s\n", trace_out.c_str());
      } else {
        std::fprintf(stderr, "warning: cannot write %s\n", trace_out.c_str());
      }
    }
  }

  const bool correct = report.ops.failed == 0 && report.violations.empty();
  std::string metrics_json;
  const auto emit = [&](const MetricSpec& spec) {
    const auto it = report.metrics.find(spec.name);
    // A layer the workload never calls reads 0.
    const double value = it == report.metrics.end() ? 0.0 : it->second.value;
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics_json.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics_json += buffer;
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      emit(spec);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      emit(spec);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(report.ops.attempted),
              static_cast<long long>(report.ops.failed), metrics_json.c_str());
  return correct ? 0 : 1;
}
