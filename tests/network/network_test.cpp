#include "network/network.hpp"

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "network/contention.hpp"
#include "tests/counting_new.hpp"

namespace dsm::net {
namespace {

MachineConfig cfg32() { return default_config(32); }

TEST(NetworkTest, LocalMessagesAreFree) {
  auto cfg = cfg32();
  Network n(cfg);
  EXPECT_EQ(n.zero_load_latency(3, 3, 32), 0u);
  EXPECT_EQ(n.message_latency(3, 3, 32, 0, TrafficClass::kData), 0u);
}

TEST(NetworkTest, ZeroLoadDecomposition) {
  auto cfg = cfg32();
  Network n(cfg);
  // 1 hop, 32-byte payload: hop latency 16ns = 32 cycles; flits = 1 header
  // + 4 payload; serialization (flits-1) * 5 core cycles = 20.
  EXPECT_EQ(n.zero_load_latency(0, 1, 32), 32u + 20u);
  // 5 hops (0 -> 31): 5*32 + 20.
  EXPECT_EQ(n.zero_load_latency(0, 31, 32), 160u + 20u);
  // Control message (8 bytes): 2 flits -> 5 cycles serialization.
  EXPECT_EQ(n.zero_load_latency(0, 1, 8), 32u + 5u);
}

TEST(NetworkTest, LatencyGrowsWithDistance) {
  auto cfg = cfg32();
  Network n(cfg);
  const auto near = n.zero_load_latency(0, 1, 32);
  const auto far = n.zero_load_latency(0, 31, 32);
  EXPECT_LT(near, far);
}

TEST(NetworkTest, TrafficAccountingByClass) {
  auto cfg = cfg32();
  Network n(cfg);
  n.message_latency(0, 1, 8, 0, TrafficClass::kCoherence);
  n.message_latency(0, 2, 32, 0, TrafficClass::kData);
  n.message_latency(0, 3, 32, 0, TrafficClass::kData);
  n.message_latency(0, 4, 136, 0, TrafficClass::kDdv);
  EXPECT_EQ(n.messages_sent(TrafficClass::kCoherence), 1u);
  EXPECT_EQ(n.messages_sent(TrafficClass::kData), 2u);
  EXPECT_EQ(n.messages_sent(TrafficClass::kDdv), 1u);
  EXPECT_EQ(n.messages_sent(TrafficClass::kSync), 0u);
  EXPECT_EQ(n.bytes_sent(TrafficClass::kData), 64u);
  EXPECT_EQ(n.total_messages(), 4u);
  EXPECT_EQ(n.total_bytes(), 8u + 64u + 136u);
}

TEST(NetworkTest, ContentionRaisesLatencyNextEpoch) {
  auto cfg = cfg32();
  Network n(cfg);
  const Cycle epoch = cfg.network.contention_epoch_cycles;
  const auto base = n.zero_load_latency(0, 1, 32);
  // Saturate link 0->1 during epoch 0.
  for (int i = 0; i < 2000; ++i)
    n.message_latency(0, 1, 32, epoch / 2, TrafficClass::kData);
  // In epoch 1 the queueing term must appear.
  EXPECT_GT(n.message_latency(0, 1, 32, epoch + 1, TrafficClass::kData),
            base);
}

TEST(NetworkTest, ContentionDecaysAfterIdleEpoch) {
  auto cfg = cfg32();
  Network n(cfg);
  const Cycle epoch = cfg.network.contention_epoch_cycles;
  for (int i = 0; i < 2000; ++i)
    n.message_latency(0, 1, 32, epoch / 2, TrafficClass::kData);
  const auto base = n.zero_load_latency(0, 1, 32);
  // Two epochs later with no traffic, utilization resets.
  EXPECT_EQ(n.message_latency(0, 1, 32, 3 * epoch + 1, TrafficClass::kData),
            base);
}

TEST(NetworkTest, MessageLatencyPathIsAllocationFree) {
  // Route tables and contention state are preallocated at construction;
  // after that, message_latency must never touch the heap.
  auto cfg = cfg32();
  Network n(cfg);
  const std::uint64_t before =
      g_alloc_count.load(std::memory_order_relaxed);
  Cycle now = 0;
  for (NodeId src = 0; src < 32; ++src)
    for (NodeId dst = 0; dst < 32; ++dst)
      now += n.message_latency(src, dst, 32, now, TrafficClass::kData);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), before);
}

// One message over the single link `link`: its queueing delay, after
// which `flits` are recorded on the link.
double cross(LinkContentionTracker& t, LinkId link, Cycle now, double alpha,
             double flits) {
  return t.delay_and_record_path({&link, 1}, now, alpha, flits);
}

TEST(LinkContentionTrackerTest, DelayFollowsThePreviousEpoch) {
  LinkContentionTracker t(/*num_links=*/128, 1000, 100.0);
  EXPECT_EQ(cross(t, 7, 500, 2.0, 50.0), 0.0);  // epoch 0: nothing before
  EXPECT_EQ(cross(t, 7, 900, 2.0, 0.0), 0.0);   // still epoch 0
  // Epoch 1 sees epoch 0's u = 0.5 -> alpha * 0.5 / 0.5 = alpha.
  EXPECT_DOUBLE_EQ(cross(t, 7, 1500, 2.0, 0.0), 2.0);
  EXPECT_EQ(cross(t, 7, 2500, 2.0, 0.0), 0.0);  // epoch 1 carried nothing
  EXPECT_EQ(cross(t, 99, 1500, 2.0, 0.0), 0.0);  // an idle link: no delay
}

TEST(LinkContentionTrackerTest, UtilizationCapBoundsDelay) {
  LinkContentionTracker t(/*num_links=*/128, 1000, 100.0);
  cross(t, 1, 100, 1.0, 1e6);  // absurd overload
  // Cap at 0.90 -> delay = alpha * 9.
  EXPECT_DOUBLE_EQ(cross(t, 1, 1500, 1.0, 0.0), 9.0);
}

TEST(LinkContentionTrackerTest, PathSumsItsLinksAndRecordsOnEach) {
  LinkContentionTracker t(/*num_links=*/128, 1000, 100.0);
  const LinkId path[] = {3, 4};
  EXPECT_EQ(t.delay_and_record_path(path, 100, 1.0, 50.0), 0.0);
  cross(t, 4, 200, 1.0, 25.0);
  // Epoch 1: link 3 carried u = 0.5 (delay 1), link 4 u = 0.75 (delay 3).
  EXPECT_DOUBLE_EQ(t.delay_and_record_path(path, 1100, 1.0, 0.0), 4.0);
}

}  // namespace
}  // namespace dsm::net
