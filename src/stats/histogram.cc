#include "src/stats/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace tableau {

void Histogram::AllocateBuckets() {
  if (buckets_.empty()) {
    buckets_.assign(static_cast<std::size_t>(kOctaves) * kSubBuckets, 0);
  }
}

int Histogram::BucketIndex(std::uint64_t value) {
  if (value < kSubBuckets) {
    return static_cast<int>(value);
  }
  const int msb = 63 - std::countl_zero(value);
  const int octave = msb - kSubBucketBits + 1;
  // For values >= kSubBuckets, `value >> octave` lies in [kSubBuckets/2, kSubBuckets).
  const int sub_index = static_cast<int>(value >> octave);
  TABLEAU_CHECK(sub_index >= kSubBuckets / 2 && sub_index < kSubBuckets);
  return octave * kSubBuckets + sub_index;
}

std::uint64_t Histogram::BucketUpperEdge(int index) {
  const int octave = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  if (octave == 0) {
    return static_cast<std::uint64_t>(sub);
  }
  // Bucket covers [sub << octave, ((sub + 1) << octave) - 1].
  return ((static_cast<std::uint64_t>(sub) + 1) << octave) - 1;
}

void Histogram::Record(TimeNs value) {
  const std::uint64_t v = value < 0 ? 0 : static_cast<std::uint64_t>(value);
  const int index = BucketIndex(v);
  AllocateBuckets();
  TABLEAU_CHECK(index >= 0 && index < static_cast<int>(buckets_.size()));
  buckets_[static_cast<std::size_t>(index)]++;
  count_++;
  sum_ += static_cast<double>(v);
  min_ = std::min<TimeNs>(min_, value < 0 ? 0 : value);
  max_ = std::max<TimeNs>(max_, value < 0 ? 0 : value);
  const double d = static_cast<double>(v);
  const double delta = d - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (d - mean_);
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) {
    return;  // Nothing recorded: a no-op that leaves the buckets unallocated.
  }
  AllocateBuckets();
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  // Chan et al.'s pairwise combination of the Welford states: exact for the
  // concatenated sample stream.
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * nb / (na + nb);
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Histogram::Mean() const {
  if (count_ == 0) {
    return 0;
  }
  return sum_ / static_cast<double>(count_);
}

double Histogram::Variance() const {
  return count_ < 2 ? 0 : m2_ / static_cast<double>(count_ - 1);
}

double Histogram::StdDev() const { return std::sqrt(Variance()); }

TimeNs Histogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  TABLEAU_CHECK(q >= 0.0 && q <= 1.0);
  if (q >= 1.0) {
    return max_;
  }
  // Ceiling-rank semantics: the q-quantile is the smallest sample whose
  // cumulative frequency reaches q. Flooring instead under-reports the tail
  // for small counts (p99.9 of 100 samples would return the 99th sample, not
  // the maximum).
  const std::uint64_t target = std::min<std::uint64_t>(
      count_, std::max<std::uint64_t>(
                  1, static_cast<std::uint64_t>(
                         std::ceil(q * static_cast<double>(count_)))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= target) {
      const auto edge = BucketUpperEdge(static_cast<int>(i));
      return std::min<TimeNs>(static_cast<TimeNs>(edge), max_);
    }
  }
  return max_;
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = kTimeNever;
  max_ = 0;
  mean_ = 0;
  m2_ = 0;
}

}  // namespace tableau
