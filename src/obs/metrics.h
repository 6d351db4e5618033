// Unified metrics registry: named counters, gauges, and fixed-bucket latency
// histograms shared by the simulator, the schedulers, and the planner.
//
// One writer at a time. A registry belongs to one simulated host (or one
// planner-only bench), and only one thread writes it at any moment:
//  - its host's worker thread, while a ShardedSimulation barrier runs;
//  - the thread that calls RunUntil, between barriers (ControlTick, the
//    planner, snapshots). The thread pool's job hand-off orders the two.
//  - bench::RunSimulations cells each own their machine's registry and merge
//    plain snapshots under AccumulatedMetrics' mutex.
// So nothing here is atomic or locked. Hot-path cost budget (see DESIGN.md
// "Observability"): a Record/Increment is a check of the enable flag plus
// plain adds — no allocation, no branches on the metric name. Callers obtain
// a handle (a stable pointer) once, at setup time, and use the handle on the
// hot path; handle lookup is O(log #metrics).
//
// Metrics are pure observers: recording never feeds back into simulated
// behaviour, so a run with metrics enabled is bit-identical to one with them
// disabled (enforced by tests/obs_test.cc and `tableau trace
// --check-determinism`).
//
// Snapshot semantics: Snapshot() captures every metric's current value into
// a plain-data MetricsSnapshot. Snapshots merge (for aggregating across
// machines) and serialize to JSON/CSV.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace tableau::obs {

// Version of every JSON document the repo writes (see DESIGN.md "Versioned
// JSON schema").
inline constexpr char kSchemaVersion[] = "1.0";

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

// RFC 4180 field quoting: a field containing a comma, double quote, or
// newline is wrapped in double quotes with embedded quotes doubled; any
// other field passes through unchanged.
std::string CsvEscapeField(const std::string& field);

// Monotonic integer counter.
class Counter {
 public:
  void Increment(std::int64_t delta = 1) {
    if (*enabled_) {
      value_ += delta;
    }
  }
  std::int64_t value() const { return value_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(const bool* enabled) : enabled_(enabled) {}

  const bool* enabled_;
  std::int64_t value_ = 0;
};

// Last-write-wins scalar (end-of-run totals, configuration echoes).
class Gauge {
 public:
  void Set(double value) {
    if (*enabled_) {
      value_ = value;
    }
  }
  double value() const { return value_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const bool* enabled) : enabled_(enabled) {}

  const bool* enabled_;
  double value_ = 0;
};

// Plain-data capture of one histogram (sparse: only occupied buckets).
struct HistogramValue {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  // (bucket index, count) pairs, ascending by index; the bucket's inclusive
  // upper edge is LatencyHistogram::BucketUpperEdge(index).
  std::vector<std::pair<int, std::uint64_t>> buckets;

  double Mean() const {
    return count == 0 ? 0 : static_cast<double>(sum) / static_cast<double>(count);
  }
  // Approximate quantile from the bucket counts, linearly interpolated by
  // rank within the winning bucket and clamped to the exact [min, max]. The
  // error is at most the winning bucket's width — for log2 buckets, less
  // than the true value itself (relative error < 100%, typically far less;
  // exact whenever the winning bucket is degenerate or holds min or max).
  // q >= 1 returns the exact maximum.
  std::int64_t Percentile(double q) const;

  bool operator==(const HistogramValue&) const = default;
};

// Fixed-bucket latency histogram: 64 power-of-two buckets (bucket i counts
// values whose bit width is i, i.e. [2^(i-1), 2^i - 1]; bucket 0 counts
// zeros), exact count/sum/min/max on the side. Record is O(1): a bit-width
// computation and plain adds. A default-constructed histogram stands alone
// and always records (telemetry keeps one per VM and latency component); a
// registry handle records while its registry is enabled.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  LatencyHistogram() = default;

  void Record(TimeNs value) {
    if (!*enabled_) {
      return;
    }
    const std::uint64_t v =
        value < 0 ? 0 : static_cast<std::uint64_t>(value);
    buckets_[std::bit_width(v)] += 1;
    count_ += 1;
    sum_ += static_cast<std::int64_t>(v);
    min_ = std::min(min_, static_cast<std::int64_t>(v));
    max_ = std::max(max_, static_cast<std::int64_t>(v));
  }

  // Sparse export; min and max read 0 while the histogram is empty.
  HistogramValue ToValue() const;

  // Inclusive upper edge of bucket `index` (2^index - 1; bucket 0 -> 0).
  static std::int64_t BucketUpperEdge(int index);

 private:
  friend class MetricsRegistry;
  explicit LatencyHistogram(const bool* enabled) : enabled_(enabled) {}

  static constexpr bool kAlwaysOn = true;

  const bool* enabled_ = &kAlwaysOn;
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = 0;
};

struct MetricValue {
  MetricKind kind = MetricKind::kCounter;
  std::int64_t counter = 0;
  double gauge = 0;
  HistogramValue hist;

  bool operator==(const MetricValue&) const = default;
};

struct MetricsSnapshot {
  std::map<std::string, MetricValue> values;

  bool empty() const { return values.empty(); }

  // Aggregation across registries (e.g. one machine per bench cell):
  // counters and histograms add; gauges keep the maximum, so the merge is
  // order-independent and thus deterministic under parallel collection.
  void Merge(const MetricsSnapshot& other);

  // JSON document: {"schema_version": kSchemaVersion, "counters": {...}, "gauges":
  // {...}, "histograms": {name: {count, sum, min, max, buckets:
  // [[upper_edge, count], ...]}}}.
  // `indent` shifts every line right (for embedding in a larger document).
  std::string ToJson(int indent = 0) const;
  // One line per metric: kind,name,count,sum,min,max,mean,p50,p99 (scalar
  // metrics fill only the columns that apply).
  std::string ToCsv() const;

  bool operator==(const MetricsSnapshot&) const = default;
};

// Named-metric registry with one writer at a time (see the top of this
// file). Handle getters find-or-create; asking for an existing name with a
// different kind aborts (names are global within a registry).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Disabling stops all recording through previously returned handles (one
  // flag check on the hot path); values retained so far stay readable.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> hist;
  };

  Entry& FindOrCreate(const std::string& name, MetricKind kind);

  bool enabled_ = true;
  std::map<std::string, Entry> entries_;
};

}  // namespace tableau::obs

#endif  // SRC_OBS_METRICS_H_
