#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/config.hpp"

namespace dsm::sim {
namespace {

SyncConfig sync_cfg() { return SyncConfig{}; }

TEST(BarrierTest, ReleasesAllAtMaxArrivalPlusCost) {
  Scheduler s(3);
  SimBarrier barrier(s, 3, sync_cfg());
  std::vector<Cycle> after(3);
  s.run([&](unsigned tid) {
    s.advance(tid, 100 * (tid + 1));  // arrivals at 100, 200, 300
    barrier.wait(tid);
    after[tid] = s.cycle(tid);
  });
  // Release = 300 + base 100 + per-stage 60 * ceil(log2 3) = 300+100+120.
  for (const Cycle c : after) EXPECT_EQ(c, 520u);
  EXPECT_EQ(barrier.episodes(), 1u);
}

TEST(BarrierTest, ReusableAcrossEpisodes) {
  Scheduler s(2);
  SimBarrier barrier(s, 2, sync_cfg());
  std::vector<Cycle> final_cycles(2);
  s.run([&](unsigned tid) {
    for (int round = 0; round < 5; ++round) {
      s.advance(tid, tid == 0 ? 10 : 30);
      barrier.wait(tid);
      // Own clock is at the episode's release point: at least the slowest
      // arrival of this round (30 cycles/round).
      EXPECT_GE(s.cycle(tid), 30u * (round + 1));
    }
    final_cycles[tid] = s.cycle(tid);
  });
  EXPECT_EQ(barrier.episodes(), 5u);
  EXPECT_EQ(final_cycles[0], final_cycles[1]);
}

TEST(BarrierTest, WaitStatTracksImbalance) {
  Scheduler s(2);
  SimBarrier barrier(s, 2, sync_cfg());
  s.run([&](unsigned tid) {
    s.advance(tid, tid == 0 ? 0 : 1000);
    barrier.wait(tid);
  });
  // The early arriver waited >= 1000 cycles.
  EXPECT_GE(barrier.wait_stat().max(), 1000.0);
}

TEST(BarrierTest, SingleParticipantPassesThrough) {
  Scheduler s(1);
  SimBarrier barrier(s, 1, sync_cfg());
  s.run([&](unsigned tid) {
    barrier.wait(tid);
    barrier.wait(tid);
  });
  EXPECT_EQ(barrier.episodes(), 2u);
}

TEST(LockTest, UncontendedAcquireIsCheap) {
  Scheduler s(1);
  SimLock lock(s, sync_cfg());
  s.run([&](unsigned tid) {
    lock.acquire(tid);
    EXPECT_EQ(s.cycle(tid), sync_cfg().lock_acquire_cycles);
    lock.release(tid);
  });
  EXPECT_EQ(lock.acquisitions(), 1u);
  EXPECT_EQ(lock.contended(), 0u);
}

TEST(LockTest, ContendedHandoffSerializes) {
  Scheduler s(3);
  SimLock lock(s, sync_cfg());
  std::vector<std::pair<Cycle, unsigned>> critical;  // (entry cycle, tid)
  s.run([&](unsigned tid) {
    lock.acquire(tid);
    critical.emplace_back(s.cycle(tid), tid);
    s.advance(tid, 500);  // long critical section
    s.yield(tid);         // let the others collide with the held lock
    lock.release(tid);
  });
  ASSERT_EQ(critical.size(), 3u);
  // Entries are strictly ordered in time, separated by the section length.
  for (std::size_t i = 1; i < critical.size(); ++i)
    EXPECT_GE(critical[i].first, critical[i - 1].first + 500);
  EXPECT_EQ(lock.contended(), 2u);
}

TEST(LockTest, TimeLaggedAcquirerCannotEnterThePast) {
  // A thread whose local clock lags the lock's last release must acquire
  // at the release time — occupancy intervals never overlap in simulated
  // time even though cooperative execution ran them back to back.
  Scheduler s(2);
  SimLock lock(s, sync_cfg());
  std::vector<std::pair<Cycle, Cycle>> spans;  // (entry, exit)
  s.run([&](unsigned tid) {
    lock.acquire(tid);
    const Cycle entry = s.cycle(tid);
    s.advance(tid, 500);
    spans.emplace_back(entry, s.cycle(tid));
    lock.release(tid);
  });
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_GE(spans[1].first, spans[0].second);
}

TEST(LockTest, FifoOrderAmongWaiters) {
  Scheduler s(3);
  SimLock lock(s, sync_cfg());
  std::vector<unsigned> order;
  s.run([&](unsigned tid) {
    // Stagger arrival: tid 0 first (holds), then 1, then 2 queue up.
    s.advance(tid, tid * 10);
    lock.acquire(tid);
    order.push_back(tid);
    s.advance(tid, 300);
    lock.release(tid);
  });
  EXPECT_EQ(order, (std::vector<unsigned>{0, 1, 2}));
}

TEST(LockDeathTest, ReleaseByNonOwnerAborts) {
  EXPECT_DEATH(
      {
        Scheduler s(2);
        SimLock lock(s, sync_cfg());
        s.run([&](unsigned tid) {
          if (tid == 0) {
            lock.acquire(tid);
            s.advance(tid, 100);
            lock.release(tid);
          } else {
            lock.release(tid);  // never acquired
          }
        });
      },
      "non-owner");
}

}  // namespace
}  // namespace dsm::sim
