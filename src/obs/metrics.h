// Unified metrics registry: named counters, gauges, and fixed-bucket latency
// histograms shared by the simulator, the schedulers, and the planner.
//
// Hot-path cost budget (see DESIGN.md "Observability"): a Record/Increment is
// one relaxed atomic load (the enabled flag) plus one or a few relaxed
// atomic read-modify-writes — no locks, no allocation, no branches on the
// metric name. Callers obtain a handle (a stable pointer) once, at setup
// time, and use the handle on the hot path; handle lookup takes the registry
// mutex and is O(log #metrics).
//
// Metrics are pure observers: recording never feeds back into simulated
// behaviour, so a run with metrics enabled is bit-identical to one with them
// disabled (enforced by tests/obs_test.cc and `tableau trace
// --check-determinism`).
//
// Snapshot semantics: Snapshot() captures every metric's current value into
// a plain-data MetricsSnapshot. Snapshots merge (for aggregating across
// machines), serialize to JSON/CSV, and parse back from their own JSON.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace tableau::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

// RFC 4180 field quoting: a field containing a comma, double quote, or
// newline is wrapped in double quotes with embedded quotes doubled; any
// other field passes through unchanged.
std::string CsvEscapeField(const std::string& field);

// Splits one CSV row (without its trailing newline) back into fields,
// undoing CsvEscapeField — the round-trip inverse used by the CSV tests.
std::vector<std::string> SplitCsvRow(const std::string& row);

// Monotonic integer counter.
class Counter {
 public:
  void Increment(std::int64_t delta = 1) {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  const std::atomic<bool>* enabled_;
  std::atomic<std::int64_t> value_{0};
};

// Last-write-wins scalar (end-of-run totals, configuration echoes).
class Gauge {
 public:
  void Set(double value) {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.store(value, std::memory_order_relaxed);
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0};
};

// Fixed-bucket latency histogram: 64 power-of-two buckets (bucket i counts
// values whose bit width is i, i.e. [2^(i-1), 2^i - 1]; bucket 0 counts
// zeros), exact count/sum/min/max on the side. Record is O(1): a bit-width
// computation and relaxed atomic updates, safe for concurrent recorders.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(TimeNs value) {
    if (!enabled_->load(std::memory_order_relaxed)) {
      return;
    }
    const std::uint64_t v =
        value < 0 ? 0 : static_cast<std::uint64_t>(value);
    buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(static_cast<std::int64_t>(v), std::memory_order_relaxed);
    AtomicMin(min_, static_cast<std::int64_t>(v));
    AtomicMax(max_, static_cast<std::int64_t>(v));
  }

  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  std::int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  std::int64_t Min() const { return Count() == 0 ? 0 : min_.load(std::memory_order_relaxed); }
  std::int64_t Max() const { return Count() == 0 ? 0 : max_.load(std::memory_order_relaxed); }

  // Inclusive upper edge of bucket `index` (2^index - 1; bucket 0 -> 0).
  static std::int64_t BucketUpperEdge(int index);

 private:
  friend class MetricsRegistry;
  explicit LatencyHistogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  static void AtomicMin(std::atomic<std::int64_t>& slot, std::int64_t v) {
    std::int64_t cur = slot.load(std::memory_order_relaxed);
    while (v < cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void AtomicMax(std::atomic<std::int64_t>& slot, std::int64_t v) {
    std::int64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  const std::atomic<bool>* enabled_;
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> max_{0};
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

struct MetricValue {
  MetricKind kind = MetricKind::kCounter;
  std::int64_t counter = 0;
  double gauge = 0;
  HistogramValue hist;

  bool operator==(const MetricValue&) const = default;
};

struct MetricsSnapshot {
  // JSON schema version, "major.minor" (see DESIGN.md "Versioned JSON
  // schema"). Major bumps on breaking layout changes; FromJson rejects
  // documents whose major it does not know. Minor bumps on additive changes
  // and is accepted regardless.
  static constexpr int kSchemaVersionMajor = 1;
  static constexpr int kSchemaVersionMinor = 0;
  static const char* SchemaVersion();  // "1.0"

  std::map<std::string, MetricValue> values;

  bool empty() const { return values.empty(); }

  // Aggregation across registries (e.g. one machine per bench cell):
  // counters and histograms add; gauges keep the maximum, so the merge is
  // order-independent and thus deterministic under parallel collection.
  void Merge(const MetricsSnapshot& other);

  // JSON document: {"schema_version": "1.0", "counters": {...}, "gauges":
  // {...}, "histograms": {name: {count, sum, min, max, buckets:
  // [[upper_edge, count], ...]}}}.
  // `indent` shifts every line right (for embedding in a larger document).
  std::string ToJson(int indent = 0) const;
  // One line per metric: kind,name,count,sum,min,max,mean,p50,p99 (scalar
  // metrics fill only the columns that apply).
  std::string ToCsv() const;

  // Parses a document produced by ToJson. Returns nullopt on malformed input
  // (including bucket edges that are not of the 2^i - 1 form) and on an
  // unknown schema_version major. Documents without a schema_version (the
  // pre-versioned format) are accepted.
  static std::optional<MetricsSnapshot> FromJson(const std::string& json);

  bool operator==(const MetricsSnapshot&) const = default;
};

// Thread-safe named-metric registry. Handle getters find-or-create; asking
// for an existing name with a different kind aborts (names are global within
// a registry).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Disabling stops all recording through previously returned handles (one
  // relaxed load on the hot path); values retained so far stay readable.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

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

  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace tableau::obs

#endif  // SRC_OBS_METRICS_H_
