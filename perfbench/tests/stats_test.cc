// Tests of the benchmark's statistics helpers (perfbench/stats.h).
#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> values;
  for (int i = 1; i <= n; ++i) {
    values.push_back(i);
  }
  return values;
}

TEST(Quantile, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(Quantile({3, 1, 2}, 0.5), 2);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(Range(11), 0.9), 10);
  EXPECT_DOUBLE_EQ(Quantile({5}, 0.9), 5);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0);
  EXPECT_DOUBLE_EQ(Quantile({1, 9}, 1.0), 9);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({7, 1, 4}), 4);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(Mean, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(Mean({}), 0);
  EXPECT_DOUBLE_EQ(Mean({1, 2, 6}), 3);
}

TEST(TailRule, NeedsTenSamplesBeyondThePercentile) {
  EXPECT_FALSE(HasTail(99, 0.9));
  EXPECT_TRUE(HasTail(100, 0.9));
  EXPECT_FALSE(HasTail(999, 0.99));
  EXPECT_TRUE(HasTail(1000, 0.99));
  EXPECT_TRUE(HasTail(20, 0.5));
  EXPECT_FALSE(HasTail(19, 0.5));
}

TEST(TailRule, PicksTheHighestSupportedPercentile) {
  EXPECT_DOUBLE_EQ(TailQuantile(19), 0);
  EXPECT_DOUBLE_EQ(TailQuantile(20), 0.5);
  EXPECT_DOUBLE_EQ(TailQuantile(99), 0.5);
  EXPECT_DOUBLE_EQ(TailQuantile(100), 0.9);
  EXPECT_DOUBLE_EQ(TailQuantile(1500), 0.99);
  EXPECT_DOUBLE_EQ(TailQuantile(10000), 0.999);
}

// Expected values from Python: statistics.quantiles(values, n=4).
TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  const Quartiles ten = PythonQuartiles(Range(10));
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.q2, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);
  const Quartiles three = PythonQuartiles({30, 10, 20});
  EXPECT_DOUBLE_EQ(three.q1, 10);
  EXPECT_DOUBLE_EQ(three.q2, 20);
  EXPECT_DOUBLE_EQ(three.q3, 30);
  // The exclusive method extrapolates beyond the data for tiny samples.
  const Quartiles two = PythonQuartiles({1, 2});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q2, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
}

TEST(Quartiles, SpreadIsInterquartileShareOfMedian) {
  EXPECT_DOUBLE_EQ(QuartileSpread(Range(10)), (8.25 - 2.75) / 5.5);
  EXPECT_DOUBLE_EQ(QuartileSpread({4, 4, 4, 4}), 0);
  EXPECT_DOUBLE_EQ(QuartileSpread({0, 0, 0}), 0);  // Zero median: no spread.
}

TEST(OpTally, CountsAFailedSolveAgainstAttempts) {
  OpTally tally;
  EXPECT_DOUBLE_EQ(tally.FailedFraction(), 0);
  // Three solves, the second returning !success.
  EXPECT_TRUE(tally.Record(true));
  EXPECT_FALSE(tally.Record(false));
  EXPECT_TRUE(tally.Record(true));
  EXPECT_EQ(tally.attempted, 3);
  EXPECT_EQ(tally.failed, 1);
  EXPECT_DOUBLE_EQ(tally.FailedFraction(), 1.0 / 3);
  // Bulk accounting: 97 requests, none incomplete.
  tally.Add(97, 0);
  EXPECT_EQ(tally.attempted, 100);
  EXPECT_DOUBLE_EQ(tally.FailedFraction(), 0.01);
}

}  // namespace
}  // namespace perfbench
