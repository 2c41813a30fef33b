// shard_plan_test.cpp — determinism contracts of the shard partition:
// "--shard=i/N" parses strictly, every spec index lands in exactly one
// shard, and a configuration carries the identical content (and therefore
// the identical content-hashed RNG seed) whether it is selected into
// shard i/N or runs in the unsharded sweep.
#include "shard/shard_plan.hpp"

#include <gtest/gtest.h>

#include "driver/sweep_spec.hpp"

namespace dsm::shard {
namespace {

TEST(ParseShardTest, AcceptsWellFormedPlans) {
  const auto p = parse_shard("0/1");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->index, 0u);
  EXPECT_EQ(p->count, 1u);

  const auto q = parse_shard("3/8");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->index, 3u);
  EXPECT_EQ(q->count, 8u);
}

TEST(ParseShardTest, RejectsMalformedPlans) {
  EXPECT_FALSE(parse_shard("").has_value());
  EXPECT_FALSE(parse_shard("3").has_value());
  EXPECT_FALSE(parse_shard("/").has_value());
  EXPECT_FALSE(parse_shard("a/b").has_value());
  EXPECT_FALSE(parse_shard("1/").has_value());
  EXPECT_FALSE(parse_shard("/2").has_value());
  EXPECT_FALSE(parse_shard("2/2").has_value());   // index out of range
  EXPECT_FALSE(parse_shard("0/0").has_value());   // empty plan
  EXPECT_FALSE(parse_shard("-1/2").has_value());  // no signs
  EXPECT_FALSE(parse_shard("1/99999").has_value());  // past kMaxShards
}

TEST(ShardPlanTest, EveryIndexOwnedByExactlyOneShard) {
  for (const unsigned n : {1u, 2u, 3u, 7u, 16u}) {
    EXPECT_TRUE(covers_exactly_once(n, 23)) << n << " shards";
    EXPECT_TRUE(covers_exactly_once(n, 1));
    EXPECT_TRUE(covers_exactly_once(n, 0));  // empty sweep: vacuous
  }
}

TEST(ShardPlanTest, SelectKeepsGlobalIndicesAndSpecOrder) {
  driver::SweepSpec spec;
  spec.apps = {"LU", "FMM"};
  spec.node_counts = {2, 8, 32};
  const auto points = spec.expand();  // 6 points

  const ShardPlan s0{0, 2}, s1{1, 2};
  const auto a = s0.select(points);
  const auto b = s1.select(points);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(a[0].index, 0u);
  EXPECT_EQ(a[1].index, 2u);
  EXPECT_EQ(a[2].index, 4u);
  EXPECT_EQ(b[0].index, 1u);
  EXPECT_EQ(b[1].index, 3u);
  EXPECT_EQ(b[2].index, 5u);
  // Round-robin balances the node axis: both shards see a 32-node point.
  EXPECT_EQ(a[1].nodes, 32u);
  EXPECT_EQ(b[2].nodes, 32u);
}

TEST(ShardPlanTest, SeedsIdenticalShardedAndUnsharded) {
  driver::SweepSpec spec;
  spec.apps = {"LU", "FMM", "Art"};
  spec.node_counts = {2, 8};
  spec.thresholds = {0.5, 1.0};
  const auto points = spec.expand();  // 12 points

  for (const unsigned n : {2u, 3u, 5u}) {
    std::size_t covered = 0;
    for (unsigned i = 0; i < n; ++i) {
      for (const auto& pt : ShardPlan{i, n}.select(points)) {
        // The selected point is the unsharded point, verbatim: content
        // (and therefore spec_seed) does not depend on the shard plan.
        const auto& orig = points[pt.index];
        EXPECT_EQ(pt.app, orig.app);
        EXPECT_EQ(pt.nodes, orig.nodes);
        EXPECT_EQ(pt.threshold, orig.threshold);
        EXPECT_EQ(driver::spec_seed(pt), driver::spec_seed(orig));
        ++covered;
      }
    }
    EXPECT_EQ(covered, points.size()) << n << " shards";
  }
}

}  // namespace
}  // namespace dsm::shard
