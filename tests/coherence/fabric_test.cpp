#include "coherence/fabric.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/config.hpp"
#include "memory/home_map.hpp"
#include "network/network.hpp"

namespace dsm::coh {
namespace {

using mem::LineState;

/// Harness: a fabric over n nodes with round-robin page homes.
struct Rig {
  MachineConfig cfg;
  net::Network network;
  mem::HomeMap home_map;
  CoherenceFabric fabric;

  explicit Rig(unsigned nodes)
      : cfg(default_config(nodes)),
        network(cfg),
        home_map(nodes, cfg.memory.page_bytes, mem::Placement::kRoundRobin),
        fabric(cfg, network, home_map) {}
};

// Address homed at node `h` (page h of the round-robin map).
Addr homed_at(const Rig& r, NodeId h, Addr offset = 0) {
  return h * r.cfg.memory.page_bytes + offset;
}

// `dsm_report trace` labels miss fills with these names, including the
// source values a 7-bit trace field can hold but no DataSource has.
TEST(DataSourceNameTest, NamesEverySourceAndMarksUnknownOnes) {
  EXPECT_STREQ(data_source_name(DataSource::kL1), "L1");
  EXPECT_STREQ(data_source_name(DataSource::kL2), "L2");
  EXPECT_STREQ(data_source_name(DataSource::kLocalMem), "LocalMem");
  EXPECT_STREQ(data_source_name(DataSource::kRemoteMem), "RemoteMem");
  EXPECT_STREQ(data_source_name(DataSource::kRemoteCache), "RemoteCache");
  EXPECT_STREQ(data_source_name(DataSource::kUpgrade), "Upgrade");
  EXPECT_STREQ(data_source_name(static_cast<DataSource>(6)), "?");
  EXPECT_STREQ(data_source_name(static_cast<DataSource>(127)), "?");
}

TEST(FabricTest, ColdReadMissGrantsExclusive) {
  Rig r(4);
  const Addr a = homed_at(r, 0);
  const auto out = r.fabric.access(0, a, /*write=*/false, 0);
  EXPECT_FALSE(out.l1_hit);
  EXPECT_EQ(out.source, DataSource::kLocalMem);
  EXPECT_EQ(r.fabric.l1(0).state(a), LineState::kExclusive);
  EXPECT_EQ(r.fabric.l2(0).state(a), LineState::kExclusive);
  const auto e = r.fabric.directory(0).peek(a);
  EXPECT_EQ(e.state, DirEntry::State::kExclusive);
  EXPECT_EQ(e.owner, 0u);
  r.fabric.check_invariants();
}

TEST(FabricTest, ReadAfterFillHitsL1) {
  Rig r(4);
  const Addr a = homed_at(r, 1);
  r.fabric.access(0, a, false, 0);
  const auto out = r.fabric.access(0, a, false, 100);
  EXPECT_TRUE(out.l1_hit);
  EXPECT_EQ(out.latency, r.cfg.l1.latency_cycles);
  EXPECT_EQ(out.source, DataSource::kL1);
}

TEST(FabricTest, RemoteReadCostsMoreThanLocal) {
  Rig r(8);
  const auto local = r.fabric.access(0, homed_at(r, 0), false, 0);
  const auto remote = r.fabric.access(0, homed_at(r, 7), false, 0);
  EXPECT_EQ(local.source, DataSource::kLocalMem);
  EXPECT_EQ(remote.source, DataSource::kRemoteMem);
  EXPECT_GT(remote.latency, local.latency);
}

TEST(FabricTest, SilentExclusiveToModifiedUpgrade) {
  Rig r(4);
  const Addr a = homed_at(r, 0);
  r.fabric.access(0, a, false, 0);  // E
  const auto out = r.fabric.access(0, a, true, 10);  // silent E->M
  EXPECT_TRUE(out.l1_hit);
  EXPECT_EQ(out.latency, r.cfg.l1.latency_cycles);
  EXPECT_EQ(r.fabric.l1(0).state(a), LineState::kModified);
  EXPECT_EQ(r.fabric.l2(0).state(a), LineState::kModified);
  r.fabric.check_invariants();
}

TEST(FabricTest, SecondReaderDowngradesOwnerToShared) {
  Rig r(4);
  const Addr a = homed_at(r, 2);
  r.fabric.access(0, a, false, 0);   // node 0: E
  const auto out = r.fabric.access(1, a, false, 100);
  EXPECT_EQ(out.source, DataSource::kRemoteCache);
  EXPECT_EQ(r.fabric.l2(0).state(a), LineState::kShared);
  EXPECT_EQ(r.fabric.l2(1).state(a), LineState::kShared);
  const auto e = r.fabric.directory(2).peek(a);
  EXPECT_EQ(e.state, DirEntry::State::kShared);
  EXPECT_TRUE(e.is_sharer(0));
  EXPECT_TRUE(e.is_sharer(1));
  r.fabric.check_invariants();
}

TEST(FabricTest, DirtyOwnerWritesBackOnRemoteRead) {
  Rig r(4);
  const Addr a = homed_at(r, 2);
  r.fabric.access(0, a, true, 0);  // node 0: M
  const auto wb_before = r.fabric.stats(0).writebacks;
  r.fabric.access(1, a, false, 100);
  EXPECT_EQ(r.fabric.stats(0).writebacks, wb_before + 1);
  EXPECT_EQ(r.fabric.l2(0).state(a), LineState::kShared);
  r.fabric.check_invariants();
}

TEST(FabricTest, WriteInvalidatesAllSharers) {
  Rig r(8);
  const Addr a = homed_at(r, 0);
  for (NodeId n = 0; n < 4; ++n) r.fabric.access(n, a, false, n * 10);
  const auto out = r.fabric.access(5, a, true, 1000);
  EXPECT_EQ(out.invalidations, 4u);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_FALSE(r.fabric.l1(n).probe(a)) << n;
    EXPECT_FALSE(r.fabric.l2(n).probe(a)) << n;
  }
  EXPECT_EQ(r.fabric.l2(5).state(a), LineState::kModified);
  const auto e = r.fabric.directory(0).peek(a);
  EXPECT_EQ(e.state, DirEntry::State::kExclusive);
  EXPECT_EQ(e.owner, 5u);
  r.fabric.check_invariants();
}

TEST(FabricTest, SharedUpgradeTransfersNoData) {
  Rig r(4);
  const Addr a = homed_at(r, 0);
  r.fabric.access(0, a, false, 0);
  r.fabric.access(1, a, false, 10);  // both S now
  const auto out = r.fabric.access(0, a, true, 100);
  EXPECT_EQ(out.source, DataSource::kUpgrade);
  EXPECT_EQ(out.invalidations, 1u);
  EXPECT_EQ(r.fabric.l2(0).state(a), LineState::kModified);
  EXPECT_FALSE(r.fabric.l2(1).probe(a));
  EXPECT_EQ(r.fabric.stats(0).upgrades, 1u);
  r.fabric.check_invariants();
}

TEST(FabricTest, WriteMissStealsFromDirtyOwner) {
  Rig r(4);
  const Addr a = homed_at(r, 3);
  r.fabric.access(0, a, true, 0);  // node 0: M
  const auto out = r.fabric.access(1, a, true, 100);
  EXPECT_EQ(out.source, DataSource::kRemoteCache);
  EXPECT_FALSE(r.fabric.l2(0).probe(a));
  EXPECT_EQ(r.fabric.l2(1).state(a), LineState::kModified);
  const auto e = r.fabric.directory(3).peek(a);
  EXPECT_EQ(e.owner, 1u);
  r.fabric.check_invariants();
}

TEST(FabricTest, PingPongWritesAlternateOwnership) {
  Rig r(2);
  const Addr a = homed_at(r, 0);
  for (int i = 0; i < 6; ++i) {
    const NodeId w = i % 2;
    r.fabric.access(w, a, true, 100 * i);
    EXPECT_EQ(r.fabric.directory(0).peek(a).owner, w);
    r.fabric.check_invariants();
  }
  EXPECT_GE(r.fabric.stats(0).cache_to_cache +
                r.fabric.stats(1).cache_to_cache,
            5u);
}

TEST(FabricTest, L2EvictionUpdatesDirectoryPrecisely) {
  Rig r(2);
  // Fill node 0's L2 beyond one set: walk addresses mapping to set 0.
  // L2: 2MB, 8-way, 32B lines -> 8192 sets, set stride = 8192*32 = 256kB.
  const Addr stride = 8192 * 32;
  const Addr base = 0;  // page 0 -> home 0
  for (unsigned i = 0; i < 9; ++i)  // 9 lines into an 8-way set
    r.fabric.access(0, base + i * stride, false, i * 10);
  // The first line was evicted; the directory must no longer track node 0.
  const auto e = r.fabric.directory(0).peek(base);
  EXPECT_EQ(e.state, DirEntry::State::kUncached);
  EXPECT_FALSE(r.fabric.l2(0).probe(base));
  EXPECT_FALSE(r.fabric.l1(0).probe(base));  // inclusion
  r.fabric.check_invariants();
}

TEST(FabricTest, DirtyL2EvictionWritesBack) {
  Rig r(2);
  const Addr stride = 8192 * 32;
  r.fabric.access(0, 0, true, 0);  // M in node 0
  const auto wb_before = r.fabric.stats(0).writebacks;
  for (unsigned i = 1; i < 9; ++i)
    r.fabric.access(0, i * stride, false, i * 10);
  EXPECT_EQ(r.fabric.stats(0).writebacks, wb_before + 1);
  EXPECT_EQ(r.fabric.directory(0).peek(0).state, DirEntry::State::kUncached);
  r.fabric.check_invariants();
}

TEST(FabricTest, StatsCountsSourcesCorrectly) {
  Rig r(4);
  r.fabric.access(0, homed_at(r, 0), false, 0);    // local mem
  r.fabric.access(0, homed_at(r, 1), false, 10);   // remote mem
  r.fabric.access(0, homed_at(r, 0), false, 20);   // L1 hit
  r.fabric.access(1, homed_at(r, 0), false, 30);   // c2c from node 0
  const auto& s0 = r.fabric.stats(0);
  EXPECT_EQ(s0.loads, 3u);
  EXPECT_EQ(s0.local_mem, 1u);
  EXPECT_EQ(s0.remote_mem, 1u);
  EXPECT_EQ(s0.l1_hits, 1u);
  EXPECT_EQ(r.fabric.stats(1).cache_to_cache, 1u);
}

TEST(FabricTest, FlushAllEmptiesCaches) {
  Rig r(2);
  r.fabric.access(0, homed_at(r, 0), true, 0);
  r.fabric.access(1, homed_at(r, 1), false, 0);
  r.fabric.flush_all();
  EXPECT_TRUE(r.fabric.l2(0).resident_lines().empty());
  EXPECT_TRUE(r.fabric.l2(1).resident_lines().empty());
}

// Randomized protocol fuzz: many nodes, few lines, random ops; invariants
// must hold after every access.
TEST(FabricTest, RandomizedInvariantFuzz) {
  Rig r(8);
  std::uint64_t seed = 0x1234;
  auto next = [&seed]() {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return seed >> 33;
  };
  for (int i = 0; i < 3000; ++i) {
    const NodeId n = next() % 8;
    const Addr a = (next() % 16) * 32;  // 16 lines in page 0
    const bool w = next() % 3 == 0;
    r.fabric.access(n, a, w, i * 7);
    if (i % 250 == 0) r.fabric.check_invariants();
  }
  r.fabric.check_invariants();
}

// The fabric erases a directory entry in place the moment a line's last
// cached copy disappears, so a slice tracks exactly the lines some cache
// still holds — no dead-entry sawtooth, at any node count. A long
// streaming run (8x the L2 per node) must therefore keep total tracked
// lines bounded by total L2 capacity throughout, not grow with every
// distinct line ever touched.
TEST(FabricTest, StreamingKeepsTrackedLinesAtLiveLines) {
  const unsigned nodes = 4;
  MachineConfig cfg = default_config(nodes);
  cfg.l2.size_bytes = 64 * 1024;  // 2048 lines -> evictions come quickly
  net::Network network(cfg);
  mem::HomeMap home_map(nodes, cfg.memory.page_bytes,
                        mem::Placement::kRoundRobin);
  CoherenceFabric fabric(cfg, network, home_map);

  const unsigned live_lines =
      static_cast<unsigned>(cfg.l2.size_bytes / cfg.l2.line_bytes);
  const unsigned distinct = 8 * live_lines * nodes;
  const auto tracked_total = [&] {
    std::size_t sum = 0;
    for (NodeId h = 0; h < nodes; ++h)
      sum += fabric.directory(h).tracked_lines();
    return sum;
  };
  for (unsigned i = 0; i < distinct; ++i) {
    fabric.access(i % nodes, Addr{i} * cfg.l2.line_bytes, false, i * 4);
    ASSERT_LE(tracked_total(), std::size_t{live_lines} * nodes);
  }
  EXPECT_LT(tracked_total(), distinct / 2);
  EXPECT_GE(tracked_total(), live_lines);
  fabric.check_invariants();
}

// On a single node the correspondence is exact: every access is a read
// granted Exclusive to the sole cacher, every L2 eviction erases that
// line's entry, so tracked lines == lines resident in the L2 after every
// single access.
TEST(FabricTest, SingleNodeTracksExactlyResidentLines) {
  MachineConfig cfg = default_config(1);
  cfg.l2.size_bytes = 64 * 1024;
  net::Network network(cfg);
  mem::HomeMap home_map(1, cfg.memory.page_bytes, mem::Placement::kRoundRobin);
  CoherenceFabric fabric(cfg, network, home_map);

  const unsigned live_lines =
      static_cast<unsigned>(cfg.l2.size_bytes / cfg.l2.line_bytes);
  const unsigned distinct = 8 * live_lines;
  for (unsigned i = 0; i < distinct; ++i) {
    fabric.access(0, Addr{i} * cfg.l2.line_bytes, false, i * 4);
    ASSERT_EQ(fabric.directory(0).tracked_lines(),
              std::min<std::size_t>(i + 1, live_lines));
  }
  fabric.check_invariants();
}

}  // namespace
}  // namespace dsm::coh
