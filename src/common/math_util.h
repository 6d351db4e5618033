// Small integer-math helpers used by the planner: ceiling division for
// budget computation, saturating and overflow-free arithmetic for demand
// bounds, and divisor enumeration for hyperperiod selection.
#ifndef SRC_COMMON_MATH_UTIL_H_
#define SRC_COMMON_MATH_UTIL_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"

namespace tableau {

// Ceiling division for non-negative operands.
constexpr std::int64_t CeilDiv(std::int64_t num, std::int64_t den) {
  return (num + den - 1) / den;
}

// Saturating addition for non-negative operands: a + b, capped at INT64_MAX.
// Demand-bound accumulations use this so that pathological task sets (huge
// hyperperiods x many tasks) saturate instead of wrapping negative — a
// wrapped demand would make an over-loaded set look trivially schedulable.
constexpr std::int64_t SatAdd(std::int64_t a, std::int64_t b) {
  return a > INT64_MAX - b ? INT64_MAX : a + b;
}

// Saturating multiplication for non-negative operands: a * b, capped at
// INT64_MAX.
constexpr std::int64_t SatMul(std::int64_t a, std::int64_t b) {
  if (a == 0 || b == 0) return 0;
  return a > INT64_MAX / b ? INT64_MAX : a * b;
}

// Computes floor(a * b / c) without intermediate overflow, for a, b, c >= 0.
// Used for exact fluid-schedule accounting in the DP-Fair cluster scheduler.
inline std::int64_t MulDivFloor(std::int64_t a, std::int64_t b, std::int64_t c) {
  TABLEAU_CHECK(a >= 0 && b >= 0 && c > 0);
  const __int128 p = static_cast<__int128>(a) * b;
  return static_cast<std::int64_t>(p / c);
}

// All positive divisors of n, in ascending order.
std::vector<std::int64_t> DivisorsOf(std::int64_t n);

// All divisors of n that are >= floor, in descending order. This is the
// candidate-period set "F" from the paper (Sec. 5, "Bounding table lengths").
std::vector<std::int64_t> DivisorsAtLeast(std::int64_t n, std::int64_t floor);

}  // namespace tableau

#endif  // SRC_COMMON_MATH_UTIL_H_
