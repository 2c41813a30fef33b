#include "phase/bbv.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/bitops.hpp"

namespace dsm::phase {
namespace {

TEST(ManhattanTest, BasicDistances) {
  const BbvVector a{1, 2, 3};
  const BbvVector b{3, 2, 1};
  EXPECT_EQ(manhattan(a, b), 4u);
  EXPECT_EQ(manhattan(a, a), 0u);
}

TEST(ManhattanTest, CappedEarlyExitAgreesUnderCap) {
  const BbvVector a{100, 0, 0, 50};
  const BbvVector b{0, 100, 0, 0};
  const auto full = manhattan(a, b);  // 250
  EXPECT_EQ(manhattan_capped(a, b, 1000), full);
  // Over the cap: any value > cap is acceptable; must be > cap.
  EXPECT_GT(manhattan_capped(a, b, 10), 10u);
}

TEST(ManhattanTest, SymmetryAndTriangle) {
  const BbvVector a{5, 1, 9, 0}, b{2, 2, 2, 2}, c{0, 0, 0, 10};
  EXPECT_EQ(manhattan(a, b), manhattan(b, a));
  EXPECT_LE(manhattan(a, c), manhattan(a, b) + manhattan(b, c));
}

TEST(BbvAccumulatorTest, RecordsInstructionsAtHashedIndex) {
  BbvAccumulator acc(32, 1u << 16);
  acc.record_branch(0x400100, 20);
  EXPECT_EQ(acc.total_weight(), 20u);
  const unsigned idx = acc.index_of(0x400100);
  EXPECT_EQ(acc.raw()[idx], 20u);
}

TEST(BbvAccumulatorTest, SnapshotNormalizesToNorm) {
  BbvAccumulator acc(8, 1000);
  acc.record_branch(0x100, 30);
  acc.record_branch(0x200, 10);
  const auto v = acc.snapshot();
  const auto sum = std::accumulate(v.begin(), v.end(), 0u);
  // Integer floor division loses at most (entries - 1).
  EXPECT_LE(sum, 1000u);
  EXPECT_GE(sum, 1000u - 8u);
}

TEST(BbvAccumulatorTest, SnapshotProportionsReflectWeights) {
  BbvAccumulator acc(32, 1u << 16);
  // Two distinct branch sites, 3:1 instruction weight.
  acc.record_branch(0x111000, 75);
  acc.record_branch(0x222000, 25);
  const auto v = acc.snapshot();
  const unsigned i1 = acc.index_of(0x111000);
  const unsigned i2 = acc.index_of(0x222000);
  ASSERT_NE(i1, i2);
  EXPECT_NEAR(static_cast<double>(v[i1]) / v[i2], 3.0, 0.01);
}

TEST(BbvAccumulatorTest, ScaleInvarianceOfSnapshots) {
  // The same behaviour at different interval lengths must produce nearly
  // identical normalized vectors — the property that makes one threshold
  // work across interval sizes.
  BbvAccumulator a(32, 1u << 16), b(32, 1u << 16);
  for (int i = 0; i < 10; ++i) {
    a.record_branch(0x100, 7);
    a.record_branch(0x200, 3);
  }
  for (int i = 0; i < 1000; ++i) {
    b.record_branch(0x100, 7);
    b.record_branch(0x200, 3);
  }
  EXPECT_LE(manhattan(a.snapshot(), b.snapshot()), 4u);
}

TEST(BbvAccumulatorTest, EmptySnapshotIsZero) {
  BbvAccumulator acc(16, 1000);
  const auto v = acc.snapshot();
  for (const auto x : v) EXPECT_EQ(x, 0u);
}

TEST(BbvAccumulatorTest, ResetClears) {
  BbvAccumulator acc(16, 1000);
  acc.record_branch(0x100, 42);
  acc.reset();
  EXPECT_EQ(acc.total_weight(), 0u);
  for (const auto x : acc.raw()) EXPECT_EQ(x, 0u);
}

TEST(BbvAccumulatorTest, DifferentMixesAreDistant) {
  BbvAccumulator a(32, 1u << 16), b(32, 1u << 16);
  a.record_branch(0x100, 100);
  b.record_branch(0x2000, 100);
  // Two pure single-site vectors at different indices: distance = 2*norm.
  ASSERT_NE(a.index_of(0x100), a.index_of(0x2000));
  EXPECT_EQ(manhattan(a.snapshot(), b.snapshot()), 2u * (1u << 16));
}

// Entry-count sweep: hashing must stay within bounds for any table size.
class BbvEntriesTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BbvEntriesTest, IndicesInRangeAndStable) {
  const unsigned entries = GetParam();
  BbvAccumulator acc(entries, 1u << 16);
  for (Addr pc = 0x400000; pc < 0x400000 + 4096; pc += 4) {
    const unsigned idx = acc.index_of(pc);
    EXPECT_LT(idx, entries);
    EXPECT_EQ(idx, acc.index_of(pc));
    EXPECT_EQ(idx, fnv1a64(pc) % entries);
  }
}

// The simulated core hands the accumulator fnv1a64(pc) instead of pc; the
// count must land where index_of(pc) says, masked or not.
TEST_P(BbvEntriesTest, HashedBranchLandsAtIndexOf) {
  const unsigned entries = GetParam();
  BbvAccumulator acc(entries, 1u << 16);
  for (Addr pc = 0x400000; pc < 0x400000 + 4096; pc += 4) {
    const unsigned idx = acc.index_of(pc);
    const std::uint64_t before = acc.raw()[idx];
    acc.record_hashed(fnv1a64(pc), 3);
    EXPECT_EQ(acc.raw()[idx], before + 3) << "pc 0x" << std::hex << pc;
  }
  EXPECT_EQ(acc.total_weight(), 3u * 1024);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BbvEntriesTest,
                         ::testing::Values(1u, 8u, 24u, 32u, 33u, 64u, 128u));

}  // namespace
}  // namespace dsm::phase
