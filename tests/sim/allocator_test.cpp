#include "sim/allocator.hpp"

#include <gtest/gtest.h>

#include "memory/home_map.hpp"

namespace dsm::sim {
namespace {

constexpr std::uint64_t kPage = 4096;

TEST(AllocatorTest, AllocationsArePageAlignedAndDisjoint) {
  mem::HomeMap hm(4, kPage);
  SimAllocator alloc(hm);
  const Addr a = alloc.alloc(100);
  const Addr b = alloc.alloc(5000);
  const Addr c = alloc.alloc(1);
  EXPECT_EQ(a % kPage, 0u);
  EXPECT_EQ(b % kPage, 0u);
  EXPECT_EQ(c % kPage, 0u);
  EXPECT_GE(b, a + 100);
  EXPECT_GE(c, b + 5000);
  EXPECT_EQ(alloc.allocated_bytes(), 5101u);
}

TEST(AllocatorTest, AllocOnPlacesEveryPage) {
  mem::HomeMap hm(4, kPage);
  SimAllocator alloc(hm);
  const Addr a = alloc.alloc_on(3 * kPage, 2);
  for (Addr off = 0; off < 3 * kPage; off += kPage)
    EXPECT_EQ(hm.home_of(a + off), 2u);
}

TEST(AllocatorTest, AllocDistributedRoundRobins) {
  mem::HomeMap hm(4, kPage);
  SimAllocator alloc(hm);
  const Addr a = alloc.alloc_distributed(4 * kPage, 1);
  EXPECT_EQ(hm.home_of(a), 1u);
  EXPECT_EQ(hm.home_of(a + kPage), 2u);
  EXPECT_EQ(hm.home_of(a + 2 * kPage), 3u);
  EXPECT_EQ(hm.home_of(a + 3 * kPage), 0u);
}

TEST(AllocatorTest, DefaultAllocUsesPolicy) {
  mem::HomeMap hm(4, kPage);
  SimAllocator alloc(hm);
  const Addr a = alloc.alloc(2 * kPage);
  // Page mod n: consecutive pages differ.
  EXPECT_NE(hm.home_of(a), hm.home_of(a + kPage));
}

TEST(AllocatorTest, BaseIsRespected) {
  mem::HomeMap hm(2, kPage);
  SimAllocator alloc(hm, /*base=*/1ull << 30);
  EXPECT_GE(alloc.alloc(8), 1ull << 30);
}

TEST(AllocatorDeathTest, ZeroBytesAborts) {
  mem::HomeMap hm(2, kPage);
  SimAllocator alloc(hm);
  EXPECT_DEATH(alloc.alloc(0), "bytes");
}

}  // namespace
}  // namespace dsm::sim
