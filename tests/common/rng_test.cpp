#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dsm {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng r(9);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10'000; ++i) ++seen[r.next_below(10)];
  for (int i = 0; i < 10; ++i) {
    EXPECT_GT(seen[i], 800) << "bucket " << i;   // ~1000 expected
    EXPECT_LT(seen[i], 1200) << "bucket " << i;
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng r(13);
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double x = r.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(RngTest, NormalMomentsRoughlyCorrect) {
  Rng r(17);
  double sum = 0.0, sq = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

}  // namespace
}  // namespace dsm
