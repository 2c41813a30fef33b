#include "memory/cache.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <tuple>
#include <vector>

namespace dsm::mem {
namespace {

CacheConfig small_cache(unsigned assoc) {
  CacheConfig c;
  c.size_bytes = 1024;
  c.associativity = assoc;
  c.line_bytes = 32;
  c.latency_cycles = 1;
  return c;
}

long minor_faults() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_minflt;
}

TEST(CacheTest, MissThenHit) {
  Cache c(small_cache(2));
  EXPECT_FALSE(c.access(0x100));
  EXPECT_EQ(c.misses(), 1u);
  c.fill(0x100, LineState::kShared);
  EXPECT_TRUE(c.access(0x100));
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_TRUE(c.access(0x11f));  // same 32-byte line
  EXPECT_FALSE(c.access(0x120));  // next line
}

TEST(CacheTest, StateTracking) {
  Cache c(small_cache(2));
  c.fill(0x40, LineState::kExclusive);
  EXPECT_EQ(c.state(0x40), LineState::kExclusive);
  c.set_state(0x40, LineState::kModified);
  EXPECT_EQ(c.state(0x40), LineState::kModified);
  EXPECT_EQ(c.state(0x9999), LineState::kInvalid);
}

TEST(CacheTest, LruEvictsLeastRecentlyUsed) {
  // 2-way, 16 sets: lines 0, 512, 1024 map to set 0 (line 32B, 16 sets ->
  // set stride 512).
  Cache c(small_cache(2));
  c.fill(0, LineState::kShared);
  c.fill(512, LineState::kShared);
  c.access(0);  // 0 is now MRU; 512 is LRU
  const auto victim = c.fill(1024, LineState::kShared);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line_addr, 512u);
  EXPECT_TRUE(c.probe(0));
  EXPECT_FALSE(c.probe(512));
  EXPECT_TRUE(c.probe(1024));
  EXPECT_EQ(c.evictions(), 1u);
}

TEST(CacheTest, VictimCarriesDirtyState) {
  Cache c(small_cache(1));  // direct-mapped
  c.fill(0, LineState::kModified);
  const auto victim = c.fill(1024, LineState::kShared);  // same set
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->state, LineState::kModified);
}

TEST(CacheTest, InvalidateReturnsPriorState) {
  Cache c(small_cache(2));
  c.fill(0x40, LineState::kModified);
  EXPECT_EQ(c.invalidate(0x40), LineState::kModified);
  EXPECT_FALSE(c.probe(0x40));
  EXPECT_EQ(c.invalidate(0x40), LineState::kInvalid);  // second time: absent
  EXPECT_EQ(c.invalidations_received(), 1u);
}

TEST(CacheTest, DowngradeOnlyWeakensExclusivity) {
  Cache c(small_cache(2));
  c.fill(0x40, LineState::kModified);
  EXPECT_EQ(c.downgrade(0x40), LineState::kModified);
  EXPECT_EQ(c.state(0x40), LineState::kShared);
  EXPECT_EQ(c.downgrade(0x40), LineState::kShared);  // S stays S
  EXPECT_EQ(c.state(0x40), LineState::kShared);
}

// Construction maps the sets without writing them, so a Table I L2
// (256 KiB of way words) costs no resident memory until a run touches
// its sets.
TEST(CacheTest, ConstructionTouchesNoSetMemory) {
  const CacheConfig l2 = default_config(1).l2;
  const long before = minor_faults();
  const Cache c(l2);
  EXPECT_LT(minor_faults() - before, 8);
  EXPECT_TRUE(c.resident_lines().empty());
  EXPECT_EQ(c.resident_count(), 0u);
}

// A way is one 4-byte word, so an 8-way Table I L2 set is 32 B and its
// 8,192 sets span 64 pages; a direct-mapped set is one word, so 65,536
// sets of the L1's shape span 64 pages too. Filling one line per set
// faults each page in once (the slack covers the sanitizer builds'
// shadow pages).
TEST(CacheTest, OneFillPerSetFaultsInEachSetPageOnce) {
  CacheConfig dm = default_config(1).l1;
  dm.size_bytes = 65536ull * dm.line_bytes;
  for (const CacheConfig& cfg : {default_config(1).l2, dm}) {
    Cache c(cfg);
    const std::uint64_t sets =
        cfg.size_bytes / (std::uint64_t{cfg.line_bytes} * cfg.associativity);
    const long before = minor_faults();
    for (std::uint64_t s = 0; s < sets; ++s)
      c.fill(s * cfg.line_bytes, LineState::kShared);
    EXPECT_LE(minor_faults() - before, 64 + 8) << cfg.associativity << "-way";
    EXPECT_EQ(c.resident_count(), sets);
  }
}

TEST(CacheTest, HitRate) {
  Cache c(small_cache(2));
  c.fill(0, LineState::kShared);
  c.access(0);
  c.access(0);
  c.access(64);  // miss
  EXPECT_NEAR(c.hit_rate(), 2.0 / 3.0, 1e-12);
}

TEST(CacheDeathTest, DoubleFillAborts) {
  Cache c(small_cache(2));
  c.fill(0x40, LineState::kShared);
  EXPECT_DEATH(c.fill(0x40, LineState::kShared), "already-present");
}

TEST(CacheDeathTest, SetStateOnAbsentLineAborts) {
  Cache c(small_cache(2));
  EXPECT_DEATH(c.set_state(0x40, LineState::kShared), "absent");
}

// An 8-way way word keeps 3 state bits, 3 rank bits and a 26-bit key
// (tag + 1), so the Table I L2 (8,192 sets of 32 B lines: 2^18 B per tag)
// holds lines below about 2^44 B. A line above that aborts instead of
// aliasing a lower line's key.
TEST(CacheDeathTest, LineBeyondTagRangeAborts) {
  Cache c(default_config(1).l2);
  const Addr top = ((Addr{1} << 26) - 2) << 18;  // the highest tag with a key
  c.fill(top, LineState::kShared);
  EXPECT_TRUE(c.probe(top));
  EXPECT_DEATH(c.fill(Addr{1} << 44, LineState::kShared), "tag range");
}

// ---- property sweep over geometries ----

using CacheParam = std::tuple<unsigned, unsigned, unsigned>;  // size-kB, assoc, line

class CacheGeometryTest : public ::testing::TestWithParam<CacheParam> {
 protected:
  CacheConfig make() const {
    const auto [kb, assoc, line] = GetParam();
    CacheConfig c;
    c.size_bytes = kb * 1024ull;
    c.associativity = assoc;
    c.line_bytes = line;
    return c;
  }
};

TEST_P(CacheGeometryTest, CapacityIsRespected) {
  const CacheConfig cfg = make();
  Cache c(cfg);
  const std::uint64_t lines = cfg.size_bytes / cfg.line_bytes;
  // Fill exactly capacity distinct lines: no evictions.
  for (std::uint64_t i = 0; i < lines; ++i)
    c.fill(i * cfg.line_bytes, LineState::kShared);
  EXPECT_EQ(c.evictions(), 0u);
  EXPECT_EQ(c.resident_lines().size(), lines);
  EXPECT_EQ(c.resident_count(), lines);
  // One more line in any set must evict.
  c.fill(lines * cfg.line_bytes, LineState::kShared);
  EXPECT_EQ(c.evictions(), 1u);
  EXPECT_EQ(c.resident_lines().size(), lines);
  EXPECT_EQ(c.resident_count(), lines);
  c.invalidate(lines * cfg.line_bytes);
  EXPECT_EQ(c.resident_count(), lines - 1);
}

TEST_P(CacheGeometryTest, SequentialRefillAllHits) {
  const CacheConfig cfg = make();
  Cache c(cfg);
  const std::uint64_t lines = cfg.size_bytes / cfg.line_bytes;
  for (std::uint64_t i = 0; i < lines; ++i) {
    c.access(i * cfg.line_bytes);
    c.fill(i * cfg.line_bytes, LineState::kShared);
  }
  for (std::uint64_t i = 0; i < lines; ++i)
    EXPECT_TRUE(c.access(i * cfg.line_bytes)) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(CacheParam{1, 1, 32},    // tiny direct-mapped
                      CacheParam{1, 2, 32},
                      CacheParam{16, 1, 32},   // Table I L1
                      CacheParam{16, 4, 64},
                      CacheParam{64, 8, 32},   // L2-like, shrunk
                      CacheParam{4, 16, 32})); // high associativity

// ---- combined lookup() equivalence with the address-based sequences ----

TEST(CacheLookupTest, HandleMirrorsAddressApi) {
  Cache c(small_cache(2));
  // Absent line: falsy handle, kInvalid state, miss counting matches
  // a missing access().
  EXPECT_FALSE(c.lookup(0x100));
  EXPECT_EQ(c.state_of(c.lookup(0x100)), LineState::kInvalid);
  c.record_miss();
  EXPECT_EQ(c.misses(), 1u);
  // Present line: truthy handle, state/touch/set_state agree with the
  // address forms.
  c.fill(0x100, LineState::kShared);
  const auto h = c.lookup(0x11f);  // same 32-byte line
  ASSERT_TRUE(h);
  EXPECT_EQ(c.state_of(h), c.state(0x100));
  c.touch(h);
  EXPECT_EQ(c.hits(), 1u);
  c.set_state(h, LineState::kModified);
  EXPECT_EQ(c.state(0x100), LineState::kModified);
  EXPECT_EQ(c.invalidate(c.lookup(0x100)), LineState::kModified);
  EXPECT_FALSE(c.probe(0x100));
}

// LineRef is an index into the set records, so it follows the slot, not a
// pointer: handles — including handles to OTHER lines in the same set —
// must survive any number of touch()/set_state()/downgrade() calls
// (cache.hpp documents the invalidation rules: only fill() and
// invalidate() may repurpose or empty a slot).
TEST(CacheLookupTest, HandlesStayValidAcrossTouchAndSetState) {
  Cache c(small_cache(2));
  // Two lines in the same set (2-way, 16 sets, set stride 512).
  c.fill(0, LineState::kShared);
  c.fill(512, LineState::kExclusive);
  const auto ha = c.lookup(0);
  const auto hb = c.lookup(512);
  ASSERT_TRUE(ha);
  ASSERT_TRUE(hb);
  // Interleave LRU movement and state writes through both handles; each
  // must keep denoting its own line.
  c.touch(ha);
  c.set_state(hb, LineState::kModified);
  EXPECT_EQ(c.state_of(ha), LineState::kShared);
  EXPECT_EQ(c.state_of(hb), LineState::kModified);
  c.touch(hb);
  c.set_state(ha, LineState::kModified);
  c.downgrade(hb);
  EXPECT_EQ(c.state_of(ha), LineState::kModified);
  EXPECT_EQ(c.state_of(hb), LineState::kShared);
  EXPECT_EQ(c.state(0), LineState::kModified);
  EXPECT_EQ(c.state(512), LineState::kShared);
  // The handles were touched twice each on top of the two fills.
  EXPECT_EQ(c.hits(), 2u);
}

TEST(CacheTest, ResidentLinesAreSetMajorDeterministic) {
  // 2-way, 16 sets, 32 B lines: set(line) = (line/32) % 16. Fill sets in
  // scrambled order; resident_lines() must come back ascending by set,
  // ways in fill order within a set — regardless of fill or LRU order.
  Cache c(small_cache(2));
  const Addr set3 = 3 * 32, set1 = 1 * 32, set0 = 0;
  c.fill(set3, LineState::kShared);
  c.fill(set1 + 512, LineState::kShared);   // set 1, first-filled way
  c.fill(set0 + 1024, LineState::kShared);
  c.fill(set1, LineState::kShared);         // set 1, second way
  c.access(set3);                      // LRU movement must not reorder
  const std::vector<Addr> want = {set0 + 1024, set1 + 512, set1, set3};
  EXPECT_EQ(c.resident_lines(), want);
}

TEST(CacheLookupTest, RandomizedLockstepAgainstOldSequences) {
  // Drive two identical caches with the same operation stream — one
  // through the old probe()/state()/access()/set_state(Addr) calls, one
  // through a single lookup() plus the handle forms — and require
  // identical hits/misses/evictions/LRU behavior and contents throughout.
  const CacheConfig cfg = small_cache(4);
  Cache old_api(cfg);
  Cache new_api(cfg);
  std::uint64_t x = 0x2545F4914F6CDD1Dull;  // xorshift64
  auto rnd = [&x]() {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 20000; ++i) {
    const Addr a = (rnd() % 128) * cfg.line_bytes;
    const unsigned op = rnd() % 5;
    if (op == 0) {
      // Old: state + access (+ set_state on a hit) — the L1 hit pattern.
      const LineState so = old_api.state(a);
      const bool write = rnd() & 1;
      const auto h = new_api.lookup(a);
      ASSERT_EQ(new_api.state_of(h), so);
      if (so != LineState::kInvalid) {
        old_api.access(a);
        new_api.touch(h);
        if (write) {
          old_api.set_state(a, LineState::kModified);
          new_api.set_state(h, LineState::kModified);
        }
      } else {
        old_api.access(a);
        new_api.record_miss();
      }
    } else if (op == 1) {
      if (!old_api.probe(a)) {
        old_api.fill(a, LineState::kExclusive);
        new_api.fill(a, LineState::kExclusive);
      }
    } else if (op == 2) {
      ASSERT_EQ(old_api.invalidate(a), new_api.invalidate(new_api.lookup(a)));
    } else if (op == 3) {
      ASSERT_EQ(old_api.downgrade(a), new_api.downgrade(new_api.lookup(a)));
    } else {
      ASSERT_EQ(old_api.probe(a), static_cast<bool>(new_api.lookup(a)));
    }
    ASSERT_EQ(old_api.hits(), new_api.hits());
    ASSERT_EQ(old_api.misses(), new_api.misses());
    ASSERT_EQ(old_api.evictions(), new_api.evictions());
    ASSERT_EQ(old_api.invalidations_received(),
              new_api.invalidations_received());
  }
  // Same resident lines and states at the end (LRU stayed in lockstep).
  const auto ra = old_api.resident_lines();
  const auto rb = new_api.resident_lines();
  ASSERT_EQ(ra.size(), rb.size());
  for (const Addr line : ra) EXPECT_EQ(old_api.state(line),
                                       new_api.state(line));
}

}  // namespace
}  // namespace dsm::mem
