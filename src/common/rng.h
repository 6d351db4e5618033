// Deterministic pseudo-random number generator (xoshiro256**) used by the
// workload generators and property tests. Deterministic seeding keeps every
// experiment exactly reproducible run-to-run.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>

#include "src/common/check.h"

namespace tableau {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // SplitMix64 seeding, as recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    TABLEAU_CHECK(lo <= hi);
    const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
    if (range == 0) {
      return static_cast<std::int64_t>(Next());  // Full 64-bit range.
    }
    return lo + static_cast<std::int64_t>(Next() % range);
  }

  // Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  // Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) { return lo + UniformDouble() * (hi - lo); }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace tableau

#endif  // SRC_COMMON_RNG_H_
