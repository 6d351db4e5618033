#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/check.h"
#include "src/obs/json.h"

namespace tableau::obs {

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

std::int64_t LatencyHistogram::BucketUpperEdge(int index) {
  TABLEAU_CHECK(index >= 0 && index < kBuckets);
  if (index == 0) {
    return 0;
  }
  if (index == 63) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return (std::int64_t{1} << index) - 1;
}

HistogramValue LatencyHistogram::ToValue() const {
  HistogramValue value;
  value.count = count_;
  value.sum = sum_;
  value.min = count_ == 0 ? 0 : min_;
  value.max = count_ == 0 ? 0 : max_;
  // Two passes: count occupied buckets, reserve exactly, then fill — one
  // allocation per histogram instead of push_back growth.
  int occupied = 0;
  for (const std::uint64_t n : buckets_) {
    occupied += n > 0 ? 1 : 0;
  }
  value.buckets.reserve(static_cast<std::size_t>(occupied));
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets_[i] > 0) {
      value.buckets.emplace_back(i, buckets_[i]);
    }
  }
  return value;
}

std::int64_t HistogramValue::Percentile(double q) const {
  if (count == 0) {
    return 0;
  }
  if (q >= 1.0) {
    return max;
  }
  if (q < 0) {
    q = 0;
  }
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  std::uint64_t seen = 0;
  for (const auto& [index, bucket_count] : buckets) {
    if (seen + bucket_count >= rank) {
      // Interpolate by rank within the winning bucket: the rank-th sample of
      // `bucket_count` spread uniformly over [lower, upper]. fraction is in
      // (0, 1], so a full-bucket rank lands on the upper edge (the old
      // convention) and the result is never below the bucket's lower edge.
      // Clamping to the exact [min, max] keeps degenerate cases (single
      // sample, extreme quantiles) exact; the residual error is bounded by
      // the winning bucket's width (upper - lower < true value for log2
      // buckets).
      const std::int64_t lower =
          index == 0 ? 0 : std::int64_t{1} << (index - 1);
      const std::int64_t upper = LatencyHistogram::BucketUpperEdge(index);
      const double fraction = static_cast<double>(rank - seen) /
                              static_cast<double>(bucket_count);
      const auto value = static_cast<std::int64_t>(
          static_cast<double>(lower) +
          (static_cast<double>(upper) - static_cast<double>(lower)) * fraction);
      return std::clamp(value, min, max);
    }
    seen += bucket_count;
  }
  return max;
}

std::string CsvEscapeField(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) {
    return field;
  }
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out += c;
    }
  }
  out += "\"";
  return out;
}

MetricsRegistry::Entry& MetricsRegistry::FindOrCreate(const std::string& name,
                                                      MetricKind kind) {
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    TABLEAU_CHECK_MSG(it->second.kind == kind,
                      "metric '%s' already registered as a %s", name.c_str(),
                      MetricKindName(it->second.kind));
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      entry.counter.reset(new Counter(&enabled_));
      break;
    case MetricKind::kGauge:
      entry.gauge.reset(new Gauge(&enabled_));
      break;
    case MetricKind::kHistogram:
      entry.hist.reset(new LatencyHistogram(&enabled_));
      break;
  }
  return entries_.emplace(name, std::move(entry)).first->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  return FindOrCreate(name, MetricKind::kCounter).counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  return FindOrCreate(name, MetricKind::kGauge).gauge.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  return FindOrCreate(name, MetricKind::kHistogram).hist.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  for (const auto& [name, entry] : entries_) {
    MetricValue value;
    value.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        value.counter = entry.counter->value();
        break;
      case MetricKind::kGauge:
        value.gauge = entry.gauge->value();
        break;
      case MetricKind::kHistogram:
        value.hist = entry.hist->ToValue();
        break;
    }
    snapshot.values.emplace(name, std::move(value));
  }
  return snapshot;
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, incoming] : other.values) {
    const auto it = values.find(name);
    if (it == values.end()) {
      values.emplace(name, incoming);
      continue;
    }
    MetricValue& mine = it->second;
    if (mine.kind != incoming.kind) {
      continue;  // Name collision across kinds: keep the first registration.
    }
    switch (mine.kind) {
      case MetricKind::kCounter:
        mine.counter += incoming.counter;
        break;
      case MetricKind::kGauge:
        mine.gauge = std::max(mine.gauge, incoming.gauge);
        break;
      case MetricKind::kHistogram: {
        HistogramValue& h = mine.hist;
        const HistogramValue& o = incoming.hist;
        if (o.count > 0) {
          h.min = h.count == 0 ? o.min : std::min(h.min, o.min);
          h.max = std::max(h.max, o.max);
        }
        h.count += o.count;
        h.sum += o.sum;
        // Sorted-vector union (both ascending by index) — one reserve, no
        // per-bucket map nodes.
        std::vector<std::pair<int, std::uint64_t>> merged;
        merged.reserve(h.buckets.size() + o.buckets.size());
        std::size_t a = 0;
        std::size_t b = 0;
        while (a < h.buckets.size() || b < o.buckets.size()) {
          if (b >= o.buckets.size() ||
              (a < h.buckets.size() && h.buckets[a].first < o.buckets[b].first)) {
            merged.push_back(h.buckets[a++]);
          } else if (a >= h.buckets.size() ||
                     o.buckets[b].first < h.buckets[a].first) {
            merged.push_back(o.buckets[b++]);
          } else {
            merged.emplace_back(h.buckets[a].first,
                                h.buckets[a].second + o.buckets[b].second);
            ++a;
            ++b;
          }
        }
        h.buckets = std::move(merged);
        break;
      }
    }
  }
}

namespace {

std::string Pad(int indent) { return std::string(static_cast<std::size_t>(indent), ' '); }

// %.17g round-trips doubles exactly; trims to a clean integer form when one.
std::string FormatDouble(double value) {
  char buf[64];
  if (value == static_cast<double>(static_cast<std::int64_t>(value)) &&
      std::abs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  return buf;
}

}  // namespace

std::string MetricsSnapshot::ToJson(int indent) const {
  const std::string p0 = Pad(indent);
  const std::string p1 = Pad(indent + 2);
  const std::string p2 = Pad(indent + 4);
  std::string out = "{\n";
  out += p1 + "\"schema_version\": \"" + kSchemaVersion + "\",\n";

  const auto EmitSection = [&](MetricKind kind, const char* title,
                               const auto& emit_value, bool last) {
    out += p1 + "\"" + title + "\": {";
    bool first = true;
    for (const auto& [name, value] : values) {
      if (value.kind != kind) {
        continue;
      }
      out += first ? "\n" : ",\n";
      first = false;
      out += p2 + "\"" + JsonEscape(name) + "\": " + emit_value(value);
    }
    out += first ? "}" : "\n" + p1 + "}";
    out += last ? "\n" : ",\n";
  };

  EmitSection(
      MetricKind::kCounter, "counters",
      [](const MetricValue& v) { return std::to_string(v.counter); }, false);
  EmitSection(
      MetricKind::kGauge, "gauges",
      [](const MetricValue& v) { return FormatDouble(v.gauge); }, false);
  EmitSection(
      MetricKind::kHistogram, "histograms",
      [](const MetricValue& v) {
        std::string h = "{\"count\": " + std::to_string(v.hist.count) +
                        ", \"sum\": " + std::to_string(v.hist.sum) +
                        ", \"min\": " + std::to_string(v.hist.min) +
                        ", \"max\": " + std::to_string(v.hist.max) +
                        ", \"buckets\": [";
        bool first = true;
        for (const auto& [index, n] : v.hist.buckets) {
          if (!first) {
            h += ", ";
          }
          first = false;
          h += "[" + std::to_string(LatencyHistogram::BucketUpperEdge(index)) +
               ", " + std::to_string(n) + "]";
        }
        h += "]}";
        return h;
      },
      true);

  out += p0 + "}";
  return out;
}

std::string MetricsSnapshot::ToCsv() const {
  std::string out = "kind,name,count,sum,min,max,mean,p50,p99,value\n";
  for (const auto& [name, value] : values) {
    out += MetricKindName(value.kind);
    out += ",";
    out += CsvEscapeField(name);
    switch (value.kind) {
      case MetricKind::kCounter:
        out += ",,,,,,,," + std::to_string(value.counter);
        break;
      case MetricKind::kGauge:
        out += ",,,,,,,," + FormatDouble(value.gauge);
        break;
      case MetricKind::kHistogram:
        out += "," + std::to_string(value.hist.count) + "," +
               std::to_string(value.hist.sum) + "," +
               std::to_string(value.hist.min) + "," +
               std::to_string(value.hist.max) + "," +
               FormatDouble(value.hist.Mean()) + "," +
               std::to_string(value.hist.Percentile(0.5)) + "," +
               std::to_string(value.hist.Percentile(0.99)) + ",";
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace tableau::obs
