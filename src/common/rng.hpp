// rng.hpp — deterministic pseudo-random number generation.
//
// The simulator must be bit-reproducible across runs and platforms, so we
// avoid std::mt19937's distribution objects (whose output is not guaranteed
// identical across standard libraries) and implement xoshiro256** plus our
// own integer/real distributions.
#pragma once

#include <cstdint>

namespace dsm {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain algorithm),
/// reimplemented here. Fast, 256-bit state, passes BigCrush.
class Rng {
 public:
  /// Seeds the state via splitmix64 so that nearby seeds give
  /// uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound) using Lemire's rejection method
  /// (unbiased). bound must be nonzero.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform real in [0, 1).
  double next_double();

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Standard normal via Box–Muller (deterministic, no cached spare).
  double normal(double mean = 0.0, double stddev = 1.0);

 private:
  std::uint64_t s_[4];
};

}  // namespace dsm
