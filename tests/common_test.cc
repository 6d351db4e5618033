#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <set>
#include <thread>
#include <vector>

#include "src/common/math_util.h"
#include "src/common/ring_queue.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/common/time.h"
#include "src/stats/histogram.h"

namespace tableau {
namespace {

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
  EXPECT_EQ(CeilDiv(1, 100), 1);
  EXPECT_EQ(CeilDiv(0, 5), 0);
}

TEST(MathUtil, MulDivFloorNoOverflow) {
  // a * b overflows int64 but the result fits.
  const std::int64_t a = 4'000'000'000LL;
  const std::int64_t b = 4'000'000'000LL;
  EXPECT_EQ(MulDivFloor(a, b, 8'000'000'000LL), 2'000'000'000LL);
  EXPECT_EQ(MulDivFloor(7, 3, 2), 10);  // floor(21/2).
  EXPECT_EQ(MulDivFloor(0, 100, 7), 0);
}

TEST(MathUtil, DivisorsOfSmall) {
  EXPECT_EQ(DivisorsOf(12), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(DivisorsOf(1), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(DivisorsOf(16), (std::vector<std::int64_t>{1, 2, 4, 8, 16}));
  EXPECT_EQ(DivisorsOf(7), (std::vector<std::int64_t>{1, 7}));
}

TEST(MathUtil, DivisorsOfPerfectSquare) {
  EXPECT_EQ(DivisorsOf(36), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 9, 12, 18, 36}));
}

TEST(MathUtil, DivisorsAtLeastDescending) {
  const auto divisors = DivisorsAtLeast(36, 4);
  EXPECT_EQ(divisors, (std::vector<std::int64_t>{36, 18, 12, 9, 6, 4}));
}

TEST(MathUtil, DivisorsProductProperty) {
  for (const std::int64_t n : {60LL, 97LL, 1024LL, 102702600LL}) {
    for (const std::int64_t d : DivisorsOf(n)) {
      EXPECT_EQ(n % d, 0) << n << " % " << d;
    }
  }
}

TEST(Time, FormatDuration) {
  EXPECT_EQ(FormatDuration(5), "5ns");
  EXPECT_EQ(FormatDuration(1500), "1.500us");
  EXPECT_EQ(FormatDuration(2 * kMillisecond), "2.000ms");
  EXPECT_EQ(FormatDuration(3 * kSecond), "3.000s");
  EXPECT_EQ(FormatDuration(kTimeNever), "never");
  EXPECT_EQ(FormatDuration(-1500), "-1.500us");
}

TEST(Time, Conversions) {
  EXPECT_DOUBLE_EQ(ToMs(1'500'000), 1.5);
  EXPECT_DOUBLE_EQ(ToUs(1'500), 1.5);
  EXPECT_DOUBLE_EQ(ToSec(2'500'000'000LL), 2.5);
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.UniformInt(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.UniformInt(42, 42), 42);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
  EXPECT_EQ(h.Mean(), 0);
  EXPECT_EQ(h.Percentile(0.5), 0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.Record(12345);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.Min(), 12345);
  EXPECT_EQ(h.Max(), 12345);
  EXPECT_DOUBLE_EQ(h.Mean(), 12345.0);
  // Quantile error is bounded by the sub-bucket resolution (~1.6%).
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 12345.0, 12345.0 * 0.02);
}

TEST(Histogram, ExactMinMaxMean) {
  Histogram h;
  for (TimeNs v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.Min(), 1);
  EXPECT_EQ(h.Max(), 1000);
  EXPECT_DOUBLE_EQ(h.Mean(), 500.5);
  EXPECT_EQ(h.Percentile(1.0), 1000);
}

TEST(Histogram, PercentileAccuracy) {
  Histogram h;
  for (TimeNs v = 1; v <= 100000; ++v) {
    h.Record(v);
  }
  for (const double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    const double expected = q * 100000;
    EXPECT_NEAR(static_cast<double>(h.Percentile(q)), expected, expected * 0.02 + 2)
        << "q=" << q;
  }
}

TEST(Histogram, NegativeClampedToZero) {
  Histogram h;
  h.Record(-100);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
  EXPECT_EQ(h.Count(), 1u);
}

TEST(Histogram, LargeValues) {
  Histogram h;
  const TimeNs big = 100LL * kSecond;
  h.Record(big);
  EXPECT_EQ(h.Max(), big);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), static_cast<double>(big),
              static_cast<double>(big) * 0.02);
}

TEST(Histogram, Merge) {
  Histogram a;
  Histogram b;
  for (int i = 1; i <= 100; ++i) {
    a.Record(i);
    b.Record(1000 + i);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), 200u);
  EXPECT_EQ(a.Min(), 1);
  EXPECT_EQ(a.Max(), 1100);
}

TEST(Histogram, Reset) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Max(), 0);
}

TEST(Histogram, NeverRecordedPercentileAndReset) {
  // The bucket array is allocated on the first sample; a histogram that
  // never saw one still answers every accessor.
  Histogram h;
  EXPECT_EQ(h.Percentile(0.0), 0);
  EXPECT_EQ(h.Percentile(0.99), 0);
  EXPECT_EQ(h.Percentile(1.0), 0);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0);
  h.Record(7);
  EXPECT_EQ(h.Percentile(0.5), 7);
}

TEST(Histogram, MergeEmptyAndNonEmptyInEveryCombination) {
  const auto filled = [] {
    Histogram h;
    for (TimeNs v = 10; v <= 50; v += 10) {
      h.Record(v);
    }
    return h;
  };
  {
    Histogram empty;
    empty.Merge(Histogram());
    EXPECT_EQ(empty.Count(), 0u);
    EXPECT_EQ(empty.Min(), 0);
    EXPECT_EQ(empty.Percentile(0.5), 0);
  }
  {
    Histogram empty;
    empty.Merge(filled());
    EXPECT_EQ(empty.Count(), 5u);
    EXPECT_EQ(empty.Min(), 10);
    EXPECT_EQ(empty.Max(), 50);
    EXPECT_DOUBLE_EQ(empty.Mean(), 30.0);
    EXPECT_DOUBLE_EQ(empty.Variance(), filled().Variance());
    EXPECT_EQ(empty.Percentile(0.5), 30);
  }
  {
    Histogram full = filled();
    full.Merge(Histogram());
    EXPECT_EQ(full.Count(), 5u);
    EXPECT_EQ(full.Min(), 10);
    EXPECT_DOUBLE_EQ(full.Mean(), 30.0);
    EXPECT_EQ(full.Percentile(1.0), 50);
  }
  {
    Histogram full = filled();
    full.Merge(filled());
    EXPECT_EQ(full.Count(), 10u);
    EXPECT_DOUBLE_EQ(full.Mean(), 30.0);
    EXPECT_EQ(full.Percentile(0.5), 30);
    EXPECT_EQ(full.Percentile(0.7), 40);
  }
}

TEST(Histogram, PercentileMonotone) {
  Histogram h;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    h.Record(rng.UniformInt(0, 10 * kMillisecond));
  }
  TimeNs prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const TimeNs v = h.Percentile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

// Regression for the floor-rank bug: with ceiling-rank semantics, a tail
// quantile of a small sample set must reach the top samples instead of
// stopping one short (p99.9 of 100 samples is the maximum, not the 99th).
TEST(Histogram, PercentileCeilingRankSmallCounts) {
  Histogram h;
  for (TimeNs v = 1; v <= 100; ++v) {
    h.Record(v);  // Values < 128 land in exact unit-width buckets.
  }
  EXPECT_EQ(h.Percentile(0.999), 100);  // ceil(99.9) = rank 100 = max.
  EXPECT_EQ(h.Percentile(0.995), 100);  // ceil(99.5) = rank 100.
  EXPECT_EQ(h.Percentile(0.99), 99);    // Exact rank stays exact.
  EXPECT_EQ(h.Percentile(0.5), 50);
  EXPECT_EQ(h.Percentile(0.0), 1);      // Rank clamps to the first sample.
}

TEST(Histogram, PercentileCeilingRankTenSamples) {
  Histogram h;
  for (TimeNs v = 1; v <= 10; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.Percentile(0.95), 10);  // ceil(9.5) = 10; floor gave 9.
  EXPECT_EQ(h.Percentile(0.90), 9);
  EXPECT_EQ(h.Percentile(0.05), 1);   // ceil(0.5) = 1.
}

TEST(RingQueue, MatchesDequeUnderRandomPushPopAndInsert) {
  // Pushes, pops and inserts behind the front (WorkQueueGuest::PostUrgent)
  // against std::deque, with growth while the ring has wrapped.
  RingQueue<int> ring;
  std::deque<int> reference;
  std::size_t max_size = 0;
  Rng rng(5);
  for (int op = 0; op < 20000; ++op) {
    const std::int64_t pick = rng.UniformInt(0, 19);
    if (pick < 7 || reference.empty()) {
      ring.PushBack(op);
      reference.push_back(op);
    } else if (pick < 17) {
      ASSERT_EQ(ring.PopFront(), reference.front());
      reference.pop_front();
    } else {
      ring.Insert(1, op);
      reference.insert(reference.begin() + 1, op);
    }
    ASSERT_EQ(ring.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(ring[i], reference[i]) << "op " << op << ", element " << i;
    }
    max_size = std::max(max_size, reference.size());
  }
  EXPECT_GT(max_size, 64u);  // Several doublings.
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.ParallelFor(counts.size(),
                   [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) {
    EXPECT_EQ(c.load(), 1);
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int sum = 0;  // No synchronization needed: everything runs in the caller.
  pool.ParallelFor(100, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 4950);
  pool.ParallelFor(0, [&](std::size_t) { FAIL() << "n=0 must not invoke fn"; });
}

TEST(ThreadPool, HelperFallsBackWithoutPool) {
  std::vector<int> hit(10, 0);
  ParallelFor(nullptr, hit.size(), [&](std::size_t i) { hit[i] = 1; });
  EXPECT_EQ(std::count(hit.begin(), hit.end(), 1), 10);
}

TEST(ThreadPool, ConcurrentCallersShareOnePool) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr std::size_t kPerCaller = 200;
  std::vector<std::atomic<int>> counts(kCallers * kPerCaller);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      pool.ParallelFor(kPerCaller, [&](std::size_t i) {
        counts[static_cast<std::size_t>(t) * kPerCaller + i].fetch_add(1);
      });
    });
  }
  for (std::thread& caller : callers) {
    caller.join();
  }
  for (const auto& c : counts) {
    EXPECT_EQ(c.load(), 1);
  }
}

}  // namespace
}  // namespace tableau
