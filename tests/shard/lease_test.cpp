// lease_test.cpp — the coordinator's work ledger and failure-detection
// math, all against an injected millisecond clock: deadline boundaries,
// lease expiry and release, respawn backoff, lease sizing, resume
// seeding, and first-complete-wins dedup. No test sleeps — a fake clock
// is the whole point of the LeaseTable design.
#include <gtest/gtest.h>

#include "shard/lease.hpp"

namespace dsm::shard {
namespace {

// Leases are pending / (2 * live) indices, clamped to [1, 16]; each case
// below picks its sweep size and live count for the lease it needs.
FleetTuning tuning_with(std::uint64_t deadline_ms) {
  FleetTuning t;
  t.heartbeat_deadline_ms = deadline_ms;
  return t;
}

TEST(RespawnBackoffTest, DoublesFromBaseAndSaturatesAtMax) {
  FleetTuning t;
  t.backoff_base_ms = 250;
  t.backoff_max_ms = 8000;
  EXPECT_EQ(respawn_backoff_ms(t, 1), 250u);
  EXPECT_EQ(respawn_backoff_ms(t, 2), 500u);
  EXPECT_EQ(respawn_backoff_ms(t, 3), 1000u);
  EXPECT_EQ(respawn_backoff_ms(t, 6), 8000u);    // 250<<5 = 8000 exactly
  EXPECT_EQ(respawn_backoff_ms(t, 7), 8000u);    // saturated
  EXPECT_EQ(respawn_backoff_ms(t, 100), 8000u);  // huge shift must not UB
}

TEST(RespawnBackoffTest, AttemptZeroBehavesLikeOne) {
  FleetTuning t;
  t.backoff_base_ms = 100;
  t.backoff_max_ms = 1000;
  EXPECT_EQ(respawn_backoff_ms(t, 0), respawn_backoff_ms(t, 1));
}

TEST(LeaseTableTest, GrantsLowestPendingRunAndMarksOutstanding) {
  LeaseTable table(8, tuning_with(1000));
  const auto lease = table.grant(0, 0, 1);  // 8/(2*1) = 4
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->lo, 0u);
  EXPECT_EQ(lease->hi, 4u);
  EXPECT_TRUE(table.worker_leased(0));
  EXPECT_EQ(table.outstanding(0), 4u);
  EXPECT_EQ(table.pending_count(), 4u);
}

TEST(LeaseTableTest, AutoChunkShrinksAsSweepDrains) {
  // auto = clamp(pending / (2 * live), 1, 16): 100 pending, 2 live -> 16
  // (clamped); then as pending shrinks the chunks shrink with it.
  LeaseTable table(100, tuning_with(1000));
  const auto first = table.grant(0, 0, 2);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->size(), 16u);  // 100/(2*2)=25, clamped to 16
  // Complete everything but a 6-index tail.
  for (std::size_t i = first->hi; i < 94; ++i) table.mark_done(i);
  const auto tail = table.grant(1, 0, 2);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->size(), 1u);  // 6/(2*2)=1: small leases near the end
}

TEST(LeaseTableTest, ParksWhenNothingPending) {
  LeaseTable table(1, tuning_with(1000));
  ASSERT_TRUE(table.grant(0, 0, 2).has_value());  // takes the one index
  EXPECT_FALSE(table.grant(1, 0, 2).has_value());
  EXPECT_FALSE(table.all_done());  // leased, not done
}

TEST(LeaseTableTest, CompleteIsFirstWinsAndDrivesAllDone) {
  LeaseTable table(2, tuning_with(1000));
  ASSERT_TRUE(table.grant(0, 0, 1).has_value());  // [0,1)
  EXPECT_TRUE(table.complete(0));
  EXPECT_FALSE(table.complete(0));  // duplicate: caller discards
  EXPECT_TRUE(table.complete(1));  // never leased: completes all the same
  EXPECT_TRUE(table.all_done());
  EXPECT_EQ(table.done_count(), 2u);
}

TEST(LeaseTableTest, ReleaseReturnsOutstandingNotDoneIndices) {
  LeaseTable table(8, tuning_with(1000));
  ASSERT_TRUE(table.grant(0, 0, 1).has_value());  // [0,4)
  EXPECT_TRUE(table.complete(1));                 // done mid-lease
  const auto released = table.release(0);
  EXPECT_EQ(released, (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_FALSE(table.worker_leased(0));
  // Released work goes to whoever pulls next, lowest index first.
  const auto next = table.grant(1, 0, 1);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->lo, 0u);
}

TEST(LeaseTableTest, ReleasedIndexCompletedByOriginalWorkerStaysDone) {
  // The death race: worker 0's lease expires, its index is re-leased to
  // worker 1, but worker 0's record was already in flight and lands
  // first. First-complete-wins — worker 1's copy is the duplicate.
  LeaseTable table(4, tuning_with(1000));
  ASSERT_TRUE(table.grant(0, 0, 1).has_value());  // [0,2)
  table.release(0);
  ASSERT_TRUE(table.grant(1, 0, 1).has_value());  // re-leased [0,2)
  EXPECT_TRUE(table.complete(0));    // worker 0's in-flight record
  EXPECT_FALSE(table.complete(0));   // worker 1's re-run arrives: dup
  EXPECT_EQ(table.outstanding(1), 1u);  // index 1 still owed
}

TEST(LeaseTableTest, ExpiryIsExactlyAtDeadline) {
  LeaseTable table(4, tuning_with(100));
  ASSERT_TRUE(table.grant(0, 1000, 1).has_value());  // heartbeat at 1000
  EXPECT_TRUE(table.expired(1099).empty());          // 99 ms: alive
  const auto at_deadline = table.expired(1100);      // exactly 100 ms
  ASSERT_EQ(at_deadline.size(), 1u);
  EXPECT_EQ(at_deadline[0], 0u);
}

TEST(LeaseTableTest, HeartbeatRestartsTheClock) {
  LeaseTable table(4, tuning_with(100));
  ASSERT_TRUE(table.grant(0, 1000, 1).has_value());
  table.heartbeat(0, 1090);
  EXPECT_TRUE(table.expired(1100).empty());   // clock restarted at 1090
  EXPECT_FALSE(table.expired(1190).empty());  // 1090 + 100
}

TEST(LeaseTableTest, ParkedWorkerIsExemptFromDeadlines) {
  LeaseTable table(1, tuning_with(100));
  ASSERT_TRUE(table.grant(0, 0, 2).has_value());
  EXPECT_FALSE(table.grant(1, 0, 2).has_value());  // worker 1 parks
  // Far past any deadline: only the leased worker expires.
  EXPECT_EQ(table.expired(10000), std::vector<unsigned>{0});
}

TEST(LeaseTableTest, NextDeadlineTracksOldestLeasedHeartbeat) {
  LeaseTable table(8, tuning_with(100));
  EXPECT_FALSE(table.next_deadline_ms().has_value());  // nothing leased
  ASSERT_TRUE(table.grant(0, 1000, 2).has_value());
  ASSERT_TRUE(table.grant(1, 1050, 2).has_value());
  ASSERT_EQ(table.next_deadline_ms().value_or(0), 1100u);  // worker 0 first
  table.heartbeat(0, 1080);
  EXPECT_EQ(table.next_deadline_ms().value_or(0), 1150u);  // now worker 1
}

TEST(LeaseTableTest, ResumeSeedingLeasesOnlyTheGaps) {
  LeaseTable table(10, tuning_with(1000));
  table.mark_done(0);
  table.mark_done(1);
  table.mark_done(4);
  EXPECT_EQ(table.done_count(), 3u);
  EXPECT_TRUE(table.is_done(4));
  EXPECT_FALSE(table.is_done(2));
  // First grant: the contiguous gap run [2,4) — index 4 is done, so the
  // run stops there even though the lease size (7/(2*1) = 3) allows more.
  const auto first = table.grant(0, 0, 1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->lo, 2u);
  EXPECT_EQ(first->hi, 4u);
  const auto second = table.grant(0, 0, 1);  // 5/(2*1) = 2
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->lo, 5u);
  EXPECT_EQ(second->hi, 7u);
  for (std::size_t lo = 7; lo < 10; ++lo) {  // 3, 2, 1 pending: 1 each
    const auto tail = table.grant(0, 0, 1);
    ASSERT_TRUE(tail.has_value());
    EXPECT_EQ(tail->lo, lo);
    EXPECT_EQ(tail->hi, lo + 1);
  }
  EXPECT_FALSE(table.grant(0, 0, 1).has_value());  // drained
}

TEST(LeaseTableTest, EmptySweepIsBornDone) {
  LeaseTable table(0, tuning_with(1000));
  EXPECT_TRUE(table.all_done());
  EXPECT_FALSE(table.grant(0, 0, 1).has_value());
}

}  // namespace
}  // namespace dsm::shard
