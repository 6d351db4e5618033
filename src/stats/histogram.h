// Log-bucketed latency histogram, in the spirit of HdrHistogram (used by
// wrk2, the load generator in the paper's Sec. 7.4 evaluation).
//
// Values are bucketed with 64 sub-buckets per power of two, giving a worst-
// case relative quantile error of ~1.6%. Exact minimum, maximum, count, and
// sum are tracked on the side so Min()/Max()/Mean() are exact. The 58 KB
// bucket array is allocated on the first Record (or a Merge of recorded
// data): every vCPU carries two histograms, and only instrumented ones
// ever record.
#ifndef SRC_STATS_HISTOGRAM_H_
#define SRC_STATS_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"

namespace tableau {

class Histogram {
 public:
  // Records one sample. Negative samples are clamped to zero.
  void Record(TimeNs value);

  // Merges another histogram into this one.
  void Merge(const Histogram& other);

  std::uint64_t Count() const { return count_; }
  TimeNs Min() const { return count_ == 0 ? 0 : min_; }
  TimeNs Max() const { return count_ == 0 ? 0 : max_; }
  double Mean() const;
  // Exact sample variance/stddev (n - 1 denominator), tracked on the side
  // with Welford's update — not derived from the lossy buckets. 0 with fewer
  // than two samples.
  double Variance() const;
  double StdDev() const;

  // Returns the value at quantile q in [0, 1]. Percentile(1.0) returns the
  // exact maximum. Returns 0 for an empty histogram.
  TimeNs Percentile(double q) const;

  void Reset();

 private:
  static constexpr int kSubBucketBits = 7;  // 128 sub-buckets per octave (~1.6% error).
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kOctaves = 64 - kSubBucketBits;

  // Maps a non-negative value to a bucket index.
  static int BucketIndex(std::uint64_t value);
  // Representative (upper-edge) value of a bucket.
  static std::uint64_t BucketUpperEdge(int index);

  void AllocateBuckets();

  // Empty until the first sample arrives.
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  TimeNs min_ = kTimeNever;
  TimeNs max_ = 0;
  // Welford state: running mean and sum of squared deviations from it.
  double mean_ = 0;
  double m2_ = 0;
};

}  // namespace tableau

#endif  // SRC_STATS_HISTOGRAM_H_
