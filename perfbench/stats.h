// Statistics helpers of the benchmark: order statistics over host-time
// samples, the tail-percentile rule, the run-to-run spread measure, and the
// failed-operation tally. Header-only and free of library dependencies so
// tests/stats_test.cc can check them in isolation.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// Samples needed beyond a reported tail percentile (choosing-metrics rule:
// "the highest percentile with at least ten samples beyond it").
inline constexpr int kTailSamplesBeyond = 10;

// Value at quantile q in [0, 1] of `samples`, linearly interpolated between
// closest ranks (numpy's default). 0 for an empty sample.
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& samples) { return Quantile(samples, 0.5); }

inline double Mean(const std::vector<double>& samples) {
  double sum = 0;
  for (const double v : samples) {
    sum += v;
  }
  return samples.empty() ? 0 : sum / static_cast<double>(samples.size());
}

// True when `n` samples leave at least kTailSamplesBeyond of them above
// quantile q.
inline bool HasTail(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= kTailSamplesBeyond - 1e-9;
}

// The highest of p50, p90, p99, p99.9 that `n` samples support under the
// tail rule, or 0 when not even p50 does (n < 20).
inline double TailQuantile(std::size_t n) {
  double best = 0;
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    if (HasTail(n, q)) {
      best = q;
    }
  }
  return best;
}

// Quartiles exactly as Python's statistics.quantiles(values, n=4) returns
// them (the default "exclusive" method). Needs at least two values.
struct Quartiles {
  double q1 = 0;
  double q2 = 0;
  double q3 = 0;
};

inline Quartiles PythonQuartiles(std::vector<double> values) {
  Quartiles out;
  if (values.size() < 2) {
    return out;
  }
  std::sort(values.begin(), values.end());
  const auto n = static_cast<std::int64_t>(values.size());
  const std::int64_t m = n + 1;
  double cut[3] = {};
  for (std::int64_t i = 1; i <= 3; ++i) {
    std::int64_t j = i * m / 4;
    j = std::clamp<std::int64_t>(j, 1, n - 1);
    const std::int64_t delta = i * m - j * 4;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                  values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  out.q1 = cut[0];
  out.q2 = cut[1];
  out.q3 = cut[2];
  return out;
}

// Run-to-run spread: the interquartile distance as a share of the median
// (the measure a metric's bound is compared against).
inline double QuartileSpread(const std::vector<double>& values) {
  const Quartiles q = PythonQuartiles(values);
  return q.q2 == 0 ? 0 : (q.q3 - q.q1) / std::fabs(q.q2);
}

// Failed operations against attempted ones. An operation is a planner
// solve, a table check, or a simulated request; a failure is a solve that
// returns !success, a table a verifier rejects, a request that never
// completed, or a determinism mismatch.
struct OpTally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  // Counts one operation; returns `ok` so call sites can chain on it.
  bool Record(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
    }
    return ok;
  }
  void Add(std::int64_t ops, std::int64_t failures) {
    attempted += ops;
    failed += failures;
  }
  double FailedFraction() const {
    return attempted == 0 ? 0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
