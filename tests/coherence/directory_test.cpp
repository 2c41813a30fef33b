#include "coherence/directory.hpp"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

namespace dsm::coh {
namespace {

TEST(DirectoryTest, AbsentEntryPeeksUncached) {
  Directory d(0);
  const DirEntry e = d.peek(0x1000);
  EXPECT_EQ(e.state, DirEntry::State::kUncached);
  EXPECT_EQ(e.sharers, 0u);
  EXPECT_EQ(d.tracked_lines(), 0u);
}

TEST(DirectoryTest, EntryCreatesAndPersists) {
  Directory d(3);
  DirEntry& e = d.entry(0x2000);
  e.state = DirEntry::State::kExclusive;
  e.add_sharer(5);
  e.owner = 5;
  EXPECT_EQ(d.tracked_lines(), 1u);
  const DirEntry p = d.peek(0x2000);
  EXPECT_EQ(p.state, DirEntry::State::kExclusive);
  EXPECT_EQ(p.owner, 5u);
  EXPECT_TRUE(p.is_sharer(5));
}

TEST(DirectoryTest, EraseRemovesEntryInPlace) {
  Directory d(0);
  d.entry(0x1000).state = DirEntry::State::kShared;
  d.entry(0x2000).state = DirEntry::State::kExclusive;
  EXPECT_EQ(d.tracked_lines(), 2u);
  d.erase(0x1000);
  EXPECT_EQ(d.tracked_lines(), 1u);
  EXPECT_EQ(d.peek(0x1000).state, DirEntry::State::kUncached);
  EXPECT_EQ(d.peek(0x2000).state, DirEntry::State::kExclusive);
  d.erase(0x1000);  // absent: no-op
  EXPECT_EQ(d.tracked_lines(), 1u);
}

// Backward-shift deletion must keep probe chains intact: erase entries
// from the middle of dense clusters (sequential lines collide into runs
// under any hash) and verify every survivor is still reachable.
TEST(DirectoryTest, EraseInsideClustersKeepsSurvivorsReachable) {
  Directory d(0);
  constexpr unsigned kLines = 3000;  // forces several growth rebuilds
  for (Addr a = 0; a < kLines; ++a) {
    DirEntry& e = d.entry(a * 32);
    e.state = DirEntry::State::kShared;
    e.sharers = a + 1;
  }
  // Erase every third line, scattered over the whole table.
  for (Addr a = 0; a < kLines; a += 3) d.erase(a * 32);
  for (Addr a = 0; a < kLines; ++a) {
    const DirEntry p = d.peek(a * 32);
    if (a % 3 == 0) {
      EXPECT_EQ(p.state, DirEntry::State::kUncached) << a;
      EXPECT_EQ(p.sharers, 0u) << a;
    } else {
      EXPECT_EQ(p.state, DirEntry::State::kShared) << a;
      EXPECT_EQ(p.sharers, a + 1) << a;
    }
  }
  EXPECT_EQ(d.tracked_lines(), kLines - (kLines + 2) / 3);
}

// check_invariants() is the structural self-audit the fabric_alloc suite
// runs after its access storms; this is its focused regression: the
// probe-length, load-factor, and findability checks must hold through
// every structural transition — growth rebuilds and backward-shift
// erasure inside dense clusters — not just at rest.
TEST(DirectoryTest, CheckInvariantsHoldsThroughStructuralChurn) {
  Directory d(0);
  d.check_invariants();  // empty slice is already well-formed

  constexpr unsigned kLines = 2000;
  for (Addr a = 0; a < kLines; ++a) {
    DirEntry& e = d.entry(a * 32);  // sequential keys: dense probe runs
    e.state = DirEntry::State::kShared;
    e.sharers = 1;
    if (a % 256 == 255) d.check_invariants();  // across growth rebuilds
  }
  d.check_invariants();

  // Backward-shift erasure from the middle of clusters is exactly where a
  // probe-chain bug would leave an unreachable key or an over-long probe.
  for (Addr a = 0; a < kLines; a += 3) {
    d.erase(a * 32);
    if (a % 300 == 0) d.check_invariants();
  }
  d.check_invariants();
}

// A slice starts at 1,024 slots and doubles before an insert would push
// its load past 1/2: insert 513 is the first growth, to 2,048 slots (a 4x
// step would reach 4,096, holding 8x the live entries).
TEST(DirectoryTest, GrowthDoublesTheSlice) {
  Directory d(0);
  for (Addr a = 0; a < 512; ++a) d.entry(a * 64);
  EXPECT_EQ(d.capacity(), 1024u);
  d.entry(512 * 64);
  EXPECT_EQ(d.tracked_lines(), 513u);
  EXPECT_EQ(d.capacity(), 2048u);
  d.check_invariants();
}

// Randomized model check: the flat open-addressing slice must behave like
// a plain map through inserts, mutations, growth, and in-place erasure.
TEST(DirectoryTest, RandomizedLockstepAgainstMapModel) {
  Directory d(0);
  std::unordered_map<Addr, DirEntry> model;
  std::uint64_t x = 0xD1B54A32D192ED03ull;  // xorshift64
  auto rnd = [&x]() {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 50000; ++i) {
    // Two dense regions plus a sparse tail to stress probe chains.
    const std::uint64_t sel = rnd() % 3;
    const Addr a = sel == 0 ? (rnd() % 4096) * 32
                 : sel == 1 ? (Addr{1} << 32) + (rnd() % 4096) * 32
                            : (rnd() % (Addr{1} << 40)) & ~Addr{31};
    const unsigned op = rnd() % 10;
    if (op < 5) {
      DirEntry& e = d.entry(a);
      DirEntry& m = model[a];
      const auto st = static_cast<DirEntry::State>(rnd() % 3);
      const std::uint64_t sharers = rnd();
      e.state = st; e.sharers = sharers;
      m.state = st; m.sharers = sharers;
    } else if (op < 8) {
      d.erase(a);
      model.erase(a);
      ASSERT_EQ(d.tracked_lines(), model.size());
    } else {
      const DirEntry p = d.peek(a);
      const auto it = model.find(a);
      const DirEntry m = it == model.end() ? DirEntry{} : it->second;
      ASSERT_EQ(p.state, m.state);
      ASSERT_EQ(p.sharers, m.sharers);
    }
  }
  ASSERT_EQ(d.tracked_lines(), model.size());
  for (const auto& [addr, m] : model) {
    const DirEntry p = d.peek(addr);
    ASSERT_EQ(p.state, m.state) << addr;
    ASSERT_EQ(p.sharers, m.sharers) << addr;
  }
}

}  // namespace
}  // namespace dsm::coh
