#include "memory/home_map.hpp"

#include <gtest/gtest.h>

namespace dsm::mem {
namespace {

constexpr std::uint64_t kPage = 4096;

TEST(HomeMapTest, RoundRobinCyclesPages) {
  HomeMap m(4, kPage);
  EXPECT_EQ(m.home_of(0), 0u);
  EXPECT_EQ(m.home_of(kPage), 1u);
  EXPECT_EQ(m.home_of(2 * kPage), 2u);
  EXPECT_EQ(m.home_of(4 * kPage), 0u);
  // Same page, any offset.
  EXPECT_EQ(m.home_of(kPage + 123), 1u);
}

TEST(HomeMapTest, ExplicitPlacementOverridesPolicy) {
  HomeMap m(4, kPage);
  m.place_range(0, 3 * kPage, 3);
  EXPECT_EQ(m.home_of(0), 3u);
  EXPECT_EQ(m.home_of(kPage), 3u);
  EXPECT_EQ(m.home_of(2 * kPage + kPage - 1), 3u);
  EXPECT_EQ(m.home_of(3 * kPage), 3u % 4);  // back to page mod n
}

TEST(HomeMapTest, PlaceRangePartialPagesCoverWholePages) {
  HomeMap m(4, kPage);
  // Range straddling two pages binds both.
  m.place_range(kPage - 10, 20, 2);
  EXPECT_EQ(m.home_of(0), 2u);
  EXPECT_EQ(m.home_of(kPage), 2u);
  EXPECT_EQ(m.home_of(2 * kPage), 2u % 4);  // unplaced page: page mod n
}

TEST(HomeMapTest, DistributeRangeRoundRobins) {
  HomeMap m(4, kPage);
  m.distribute_range(0, 8 * kPage, /*first_node=*/1);
  EXPECT_EQ(m.home_of(0), 1u);
  EXPECT_EQ(m.home_of(kPage), 2u);
  EXPECT_EQ(m.home_of(3 * kPage), 0u);
  EXPECT_EQ(m.home_of(7 * kPage), 0u);
}

TEST(HomeMapTest, LaterPlacementWins) {
  HomeMap m(4, kPage);
  m.place_range(0, kPage, 1);
  m.place_range(0, kPage, 2);
  EXPECT_EQ(m.home_of(0), 2u);
}

TEST(HomeMapTest, ZeroByteRangesAreNoOps) {
  HomeMap m(4, kPage);
  m.place_range(0, 0, 3);
  m.distribute_range(0, 0, 1);
  EXPECT_EQ(m.home_of(0), 0u);  // still page mod n
}

// The page table grows to the highest placed page. Pages placed before
// keep their homes, and unplaced pages inside the table follow page mod n.
TEST(HomeMapTest, PlacementBeyondTableGrowsIt) {
  HomeMap m(4, kPage);
  for (NodeId p = 0; p < 4; ++p) m.place_range(p * kPage, kPage, 3 - p);
  m.place_range(5000 * kPage, kPage, 1);
  for (NodeId p = 0; p < 4; ++p) EXPECT_EQ(m.home_of(p * kPage), 3 - p);
  EXPECT_EQ(m.home_of(4999 * kPage), 4999u % 4);
  EXPECT_EQ(m.home_of(5000 * kPage), 1u);
  m.place_range(5000 * kPage, kPage, 2);
  EXPECT_EQ(m.home_of(5000 * kPage), 2u);
}

TEST(HomeMapTest, AllHomesWithinNodeCount) {
  HomeMap m(8, kPage);
  for (Addr a = 0; a < 100 * kPage; a += kPage / 2)
    EXPECT_LT(m.home_of(a), 8u);
}

}  // namespace
}  // namespace dsm::mem
