// Shared helpers for the experiment-reproduction benches: each bench binary
// regenerates one table or figure from the paper (see DESIGN.md's
// experiment index) and prints the same rows/series the paper reports.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/check/table_verifier.h"
#include "src/common/thread_pool.h"
#include "src/harness/scenario.h"
#include "src/harness/workloads.h"
#include "src/hypervisor/overhead.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/workloads/guest.h"
#include "src/workloads/stress.h"

namespace tableau::bench {

// TABLEAU_VERIFY_TABLES=1 turns every table the planner emits during a bench
// run into a property check: the TableVerifier audits each successful Solve
// and aborts with a violation report if the reservation contract is broken.
// Installed before main() so no bench can forget to opt in.
inline const bool kTableVerificationInstalled = [] {
  const char* env = std::getenv("TABLEAU_VERIFY_TABLES");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') {
    check::InstallPlannerVerification();
  }
  return true;
}();

// Simulated duration scaling: set TABLEAU_BENCH_SECONDS to stretch runs
// (default keeps the full suite fast while converged).
inline TimeNs MeasureDuration(TimeNs default_duration) {
  if (const char* env = std::getenv("TABLEAU_BENCH_SECONDS")) {
    const double seconds = std::atof(env);
    if (seconds > 0) {
      return static_cast<TimeNs>(seconds * kSecond);
    }
  }
  return default_duration;
}

// Background / BackgroundWorkloads / AttachBackground / AttachVmNoise moved
// to the public harness API (src/harness/workloads.h, namespace tableau);
// included above so existing bench call sites resolve unchanged.

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// Worker count for the parallel measurement harness: TABLEAU_BENCH_THREADS
// overrides (1 forces the serial path); default is the hardware concurrency.
inline int BenchThreads() {
  if (const char* env = std::getenv("TABLEAU_BENCH_THREADS")) {
    const int threads = std::atoi(env);
    if (threads > 0) {
      return threads;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

// Runs a batch of independent simulations on a worker pool and returns the
// results in task order. Every task owns its Scenario/Machine/Simulation and
// seeds its RNGs deterministically from its own parameters, so each cell's
// result — and therefore the merged output — is byte-identical to a serial
// run; only wall-clock time changes.
template <typename Result>
std::vector<Result> RunSimulations(const std::vector<std::function<Result()>>& tasks) {
  std::vector<Result> results(tasks.size());
  ThreadPool pool(BenchThreads());
  // Cells are heavy and heterogeneous (scheduler x load grid); the pool hands
  // them out one at a time, which balances the load.
  pool.ParallelFor(tasks.size(), [&](std::size_t i) { results[i] = tasks[i](); });
  return results;
}

// Process-wide metrics accumulator: every measured run folds its machine's
// snapshot in here (thread-safe — RunSimulations tasks record concurrently),
// and BenchJson embeds the merged result in the artifact.
struct AccumulatedMetrics {
  std::mutex mu;
  obs::MetricsSnapshot merged;

  static AccumulatedMetrics& Instance() {
    static AccumulatedMetrics instance;
    return instance;
  }

  void Record(const obs::MetricsSnapshot& snapshot) {
    std::lock_guard<std::mutex> lock(mu);
    merged.Merge(snapshot);
  }

  obs::MetricsSnapshot Get() {
    std::lock_guard<std::mutex> lock(mu);
    return merged;
  }
};

// Folds one finished scenario's machine metrics (scheduler counters, sim
// engine internals, planner phase timings) into the process-wide accumulator.
// Call once per simulation, after Run.
inline void RecordScenarioMetrics(Scenario& scenario) {
  if (scenario.machine != nullptr) {
    AccumulatedMetrics::Instance().Record(scenario.machine->SnapshotMetrics());
  }
}

// Mean cost of a traced scheduler op (the machine.sched_op.* histogram of a
// machine's metrics snapshot), in us: one cell of Tables 1-2.
inline double MeanOpCostUs(const obs::MetricsSnapshot& metrics, SchedOp op) {
  return ToUs(static_cast<TimeNs>(metrics.values.at(SchedOpMetric(op)).hist.Mean()));
}

// For planner-only benches (no machine): fold a registry's snapshot directly.
inline void RecordRegistryMetrics(obs::MetricsRegistry& registry) {
  AccumulatedMetrics::Instance().Record(registry.Snapshot());
}

// Process-wide time-series accumulator, the windowed-telemetry counterpart
// of AccumulatedMetrics: measurement cells record their telemetry windows
// concurrently from RunSimulations workers; TimeSeriesSnapshot::Merge is
// commutative/associative, so the merged result is independent of worker
// interleaving and byte-identical to a serial run.
struct AccumulatedTimeSeries {
  std::mutex mu;
  obs::TimeSeriesSnapshot merged;

  static AccumulatedTimeSeries& Instance() {
    static AccumulatedTimeSeries instance;
    return instance;
  }

  void Record(const obs::TimeSeriesSnapshot& snapshot) {
    std::lock_guard<std::mutex> lock(mu);
    merged.Merge(snapshot);
  }

  obs::TimeSeriesSnapshot Get() {
    std::lock_guard<std::mutex> lock(mu);
    return merged;
  }
};

// Accumulates scalar metrics and writes them as BENCH_<name>.json in the
// working directory: a flat {"metric": value} object — a stable artifact
// for tooling to diff across runs (see run_all.sh) — plus a "metrics" block
// holding the merged registry snapshot of every scenario the bench measured.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void Add(const std::string& key, double value) {
    entries_.emplace_back(key, value);
  }

  // Embeds an already-serialized JSON value under `key` (e.g. a merged
  // time-series snapshot or an attribution block). The caller guarantees
  // `raw_json` is valid JSON; it is emitted verbatim.
  void AddRawBlock(const std::string& key, std::string raw_json) {
    raw_blocks_.emplace_back(key, std::move(raw_json));
  }

  void Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(file, "{\n  \"schema_version\": \"%s\",\n  \"name\": \"%s\"",
                 obs::kSchemaVersion, name_.c_str());
    for (const auto& [key, value] : entries_) {
      std::fprintf(file, ",\n  \"%s\": %.6g", key.c_str(), value);
    }
    const std::string metrics =
        AccumulatedMetrics::Instance().Get().ToJson(/*indent=*/2);
    std::fprintf(file, ",\n  \"metrics\": %s", metrics.c_str());
    for (const auto& [key, raw] : raw_blocks_) {
      std::fprintf(file, ",\n  \"%s\": %s", key.c_str(), raw.c_str());
    }
    std::fprintf(file, "\n}\n");
    std::fclose(file);
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> entries_;
  std::vector<std::pair<std::string, std::string>> raw_blocks_;
};

}  // namespace tableau::bench

#endif  // BENCH_BENCH_UTIL_H_
