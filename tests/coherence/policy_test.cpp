// policy_test.cpp — unit tests for the CohPolicy tables and the MSI /
// MOESI fabric behavior they drive (the MESI tables are covered by
// policy_ref_diff_test's lockstep comparison against the retained inline
// reference, and by fabric_test's behavior suite).
#include "coherence/policy.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "coherence/fabric.hpp"
#include "common/config.hpp"
#include "driver/sweep_spec.hpp"
#include "memory/home_map.hpp"
#include "network/network.hpp"

namespace dsm::coh {
namespace {

using mem::LineState;

// ---- the tables themselves ----

TEST(PolicyTest, PolicyForSelectsTheMatchingTable) {
  for (const Protocol p :
       {Protocol::kMsi, Protocol::kMesi, Protocol::kMoesi}) {
    const CohPolicy& pol = policy_for(p);
    EXPECT_EQ(pol.protocol, p);
    EXPECT_STREQ(pol.name, protocol_name(p));
  }
  EXPECT_EQ(&policy_for(Protocol::kMesi), &kMesiPolicy);
}

TEST(PolicyTest, WritabilityPerProtocol) {
  // Only M satisfies a store under MSI; MESI/MOESI add E; O never does
  // (it is dirty but shared — a store must still invalidate the sharers).
  for (const CohPolicy* pol : {&kMsiPolicy, &kMesiPolicy, &kMoesiPolicy}) {
    EXPECT_TRUE(store_permitted(*pol, LineState::kModified));
    EXPECT_FALSE(store_permitted(*pol, LineState::kInvalid));
    EXPECT_FALSE(store_permitted(*pol, LineState::kShared));
    EXPECT_FALSE(store_permitted(*pol, LineState::kOwned));
  }
  EXPECT_FALSE(store_permitted(kMsiPolicy, LineState::kExclusive));
  EXPECT_TRUE(store_permitted(kMesiPolicy, LineState::kExclusive));
  EXPECT_TRUE(store_permitted(kMoesiPolicy, LineState::kExclusive));
}

TEST(PolicyTest, ReachableStatesPerProtocol) {
  EXPECT_FALSE(state_allowed(kMsiPolicy, LineState::kExclusive));
  EXPECT_FALSE(state_allowed(kMsiPolicy, LineState::kOwned));
  EXPECT_TRUE(state_allowed(kMesiPolicy, LineState::kExclusive));
  EXPECT_FALSE(state_allowed(kMesiPolicy, LineState::kOwned));
  EXPECT_TRUE(state_allowed(kMoesiPolicy, LineState::kOwned));
  for (const CohPolicy* pol : {&kMsiPolicy, &kMesiPolicy, &kMoesiPolicy}) {
    EXPECT_TRUE(state_allowed(*pol, LineState::kInvalid));
    EXPECT_TRUE(state_allowed(*pol, LineState::kShared));
    EXPECT_TRUE(state_allowed(*pol, LineState::kModified));
  }
}

TEST(PolicyTest, SoleReaderGrant) {
  EXPECT_EQ(kMsiPolicy.sole_read_grant, LineState::kShared);
  EXPECT_EQ(kMsiPolicy.sole_read_dir, DirEntry::State::kShared);
  EXPECT_EQ(kMesiPolicy.sole_read_grant, LineState::kExclusive);
  EXPECT_EQ(kMoesiPolicy.sole_read_grant, LineState::kExclusive);
  EXPECT_FALSE(kMsiPolicy.has_owned);
  EXPECT_FALSE(kMesiPolicy.has_owned);
  EXPECT_TRUE(kMoesiPolicy.has_owned);
}

// ---- fabric behavior under the non-default tables ----

/// Harness: a fabric over n nodes with round-robin page homes.
struct Rig {
  MachineConfig cfg;
  net::Network network;
  mem::HomeMap home_map;
  CoherenceFabric fabric;

  explicit Rig(unsigned nodes, Protocol protocol)
      : cfg(make_cfg(nodes, protocol)),
        network(cfg),
        home_map(nodes, cfg.memory.page_bytes),
        fabric(cfg, network, home_map) {}

  static MachineConfig make_cfg(unsigned nodes, Protocol protocol) {
    MachineConfig cfg = default_config(nodes);
    cfg.protocol = protocol;
    return cfg;
  }
};

// Address homed at node `h` (page h of the round-robin map).
Addr homed_at(const Rig& r, NodeId h, Addr offset = 0) {
  return h * r.cfg.memory.page_bytes + offset;
}

TEST(MsiFabricTest, ColdReadGrantsSharedNotExclusive) {
  Rig r(4, Protocol::kMsi);
  const Addr a = homed_at(r, 0);
  const auto out = r.fabric.access(0, a, /*write=*/false, 0);
  EXPECT_EQ(out.source, DataSource::kLocalMem);
  EXPECT_EQ(r.fabric.l1(0).state(a), LineState::kShared);
  EXPECT_EQ(r.fabric.l2(0).state(a), LineState::kShared);
  const auto e = r.fabric.directory(0).peek(a);
  EXPECT_EQ(e.state, DirEntry::State::kShared);
  EXPECT_EQ(e.owner, kNoNode);
  r.fabric.check_invariants();
}

TEST(MsiFabricTest, WriteAfterOwnReadPaysAnUpgrade) {
  // Under MESI this is the silent E->M case: zero directory traffic. MSI
  // granted only S, so the same pattern is a full upgrade transaction.
  Rig r(4, Protocol::kMsi);
  const Addr a = homed_at(r, 0);
  r.fabric.access(0, a, false, 0);
  const auto out = r.fabric.access(0, a, true, 100);
  EXPECT_FALSE(out.l1_hit);
  EXPECT_EQ(out.source, DataSource::kUpgrade);
  EXPECT_EQ(out.invalidations, 0u);
  EXPECT_EQ(r.fabric.stats(0).upgrades, 1u);
  EXPECT_EQ(r.fabric.l2(0).state(a), LineState::kModified);
  const auto e = r.fabric.directory(0).peek(a);
  EXPECT_EQ(e.state, DirEntry::State::kExclusive);
  EXPECT_EQ(e.owner, 0u);
  r.fabric.check_invariants();
}

TEST(MoesiFabricTest, DirtyReadProbeLeavesOwnedWithoutWriteback) {
  Rig r(4, Protocol::kMoesi);
  const Addr a = homed_at(r, 2);
  r.fabric.access(0, a, true, 0);  // node 0 takes the line M
  const auto out = r.fabric.access(1, a, false, 100);
  EXPECT_EQ(out.source, DataSource::kRemoteCache);
  // The dirty owner kept its data as Owned — no sharing writeback.
  EXPECT_EQ(r.fabric.l2(0).state(a), LineState::kOwned);
  EXPECT_EQ(r.fabric.l1(1).state(a), LineState::kShared);
  EXPECT_EQ(r.fabric.stats(0).writebacks, 0u);
  EXPECT_EQ(r.fabric.stats(1).cache_to_cache, 1u);
  const auto e = r.fabric.directory(2).peek(a);
  EXPECT_EQ(e.state, DirEntry::State::kOwned);
  EXPECT_EQ(e.owner, 0u);
  EXPECT_TRUE(e.is_sharer(0));
  EXPECT_TRUE(e.is_sharer(1));
  r.fabric.check_invariants();
}

TEST(MoesiFabricTest, SecondReaderIsForwardedByTheOwner) {
  Rig r(4, Protocol::kMoesi);
  const Addr a = homed_at(r, 2);
  r.fabric.access(0, a, true, 0);
  r.fabric.access(1, a, false, 100);
  const auto out = r.fabric.access(3, a, false, 200);
  EXPECT_EQ(out.source, DataSource::kRemoteCache);
  EXPECT_EQ(r.fabric.stats(3).cache_to_cache, 1u);
  EXPECT_EQ(r.fabric.stats(0).writebacks, 0u);
  const auto e = r.fabric.directory(2).peek(a);
  EXPECT_EQ(e.state, DirEntry::State::kOwned);
  EXPECT_EQ(e.owner, 0u);
  EXPECT_EQ(e.sharer_count(), 3u);
  r.fabric.check_invariants();
}

TEST(MoesiFabricTest, WriteToOwnedLineFetchesFromOwnerNotMemory) {
  Rig r(4, Protocol::kMoesi);
  const Addr a = homed_at(r, 2);
  r.fabric.access(0, a, true, 0);    // 0: M
  r.fabric.access(1, a, false, 100); // 0: O, 1: S, dir kOwned
  const auto mem_before = r.fabric.stats(3).local_mem +
                          r.fabric.stats(3).remote_mem;
  const auto out = r.fabric.access(3, a, true, 200);
  // Memory is stale under kOwned: the data must come from the owner.
  EXPECT_EQ(out.source, DataSource::kRemoteCache);
  EXPECT_EQ(out.invalidations, 2u);  // owner 0 and sharer 1
  EXPECT_EQ(r.fabric.stats(3).local_mem + r.fabric.stats(3).remote_mem,
            mem_before);
  EXPECT_EQ(r.fabric.l2(0).state(a), LineState::kInvalid);
  EXPECT_EQ(r.fabric.l2(1).state(a), LineState::kInvalid);
  EXPECT_EQ(r.fabric.l2(3).state(a), LineState::kModified);
  const auto e = r.fabric.directory(2).peek(a);
  EXPECT_EQ(e.state, DirEntry::State::kExclusive);
  EXPECT_EQ(e.owner, 3u);
  EXPECT_EQ(e.sharer_count(), 1u);
  r.fabric.check_invariants();
}

TEST(MoesiFabricTest, OwnerUpgradesItsOwnOwnedLine) {
  Rig r(4, Protocol::kMoesi);
  const Addr a = homed_at(r, 2);
  r.fabric.access(0, a, true, 0);
  r.fabric.access(1, a, false, 100);  // 0: O, 1: S
  const auto out = r.fabric.access(0, a, true, 200);
  EXPECT_EQ(out.source, DataSource::kUpgrade);
  EXPECT_EQ(out.invalidations, 1u);  // sharer 1 only
  EXPECT_EQ(r.fabric.l2(0).state(a), LineState::kModified);
  EXPECT_EQ(r.fabric.l2(1).state(a), LineState::kInvalid);
  const auto e = r.fabric.directory(2).peek(a);
  EXPECT_EQ(e.state, DirEntry::State::kExclusive);
  EXPECT_EQ(e.owner, 0u);
  r.fabric.check_invariants();
}

TEST(MoesiFabricTest, EvictedOwnedLineLeavesItsSharersShared) {
  // A direct-mapped 4 KiB L2, so the line 4 KiB above `a` evicts it.
  MachineConfig cfg = default_config(4);
  cfg.protocol = Protocol::kMoesi;
  cfg.l1.size_bytes = 1024;
  cfg.l2.size_bytes = 4096;
  cfg.l2.associativity = 1;
  ASSERT_EQ(cfg.validate(), "");
  net::Network network(cfg);
  mem::HomeMap home_map(4, cfg.memory.page_bytes);
  CoherenceFabric fabric(cfg, network, home_map);
  const Addr a = 2 * cfg.memory.page_bytes;  // homed at node 2
  fabric.access(0, a, true, 0);
  fabric.access(1, a, false, 100);  // 0: O, 1: S, dir kOwned
  fabric.access(0, a + cfg.l2.size_bytes, false, 200);  // evicts 0's O

  EXPECT_EQ(fabric.stats(0).writebacks, 1u);
  EXPECT_EQ(fabric.l2(0).state(a), LineState::kInvalid);
  EXPECT_EQ(fabric.l2(1).state(a), LineState::kShared);
  // The writeback refreshed memory, so the survivor's entry is a plain
  // kShared with no owner, and the next reader is served by memory
  // instead of being forwarded to the evicted owner.
  const DirEntry e = fabric.directory(2).peek(a);
  EXPECT_EQ(e.state, DirEntry::State::kShared);
  EXPECT_EQ(e.owner, kNoNode);
  EXPECT_EQ(e.sharers, std::uint64_t{1} << 1);
  EXPECT_EQ(fabric.access(3, a, false, 300).source, DataSource::kRemoteMem);
  fabric.check_invariants();
}

// A kOwned entry whose owner lost its O copy without the entry being
// demoted: the sharer walk sees only node 1's S copy, so only the owner
// check catches it.
TEST(MoesiFabricDeathTest, OwnerWithoutItsLineFailsCheck) {
  Rig r(4, Protocol::kMoesi);
  const Addr a = homed_at(r, 2);
  r.fabric.access(0, a, true, 0);
  r.fabric.access(1, a, false, 100);  // 0: O, 1: S, dir kOwned
  ASSERT_EQ(r.fabric.directory(2).peek(a).state, DirEntry::State::kOwned);
  r.fabric.check_invariants();
  r.fabric.l1(0).invalidate(a);
  r.fabric.l2(0).invalidate(a);
  r.fabric.directory(2).entry(a).remove_sharer(0);
  EXPECT_DEATH(r.fabric.check_invariants(),
               "registered owner does not hold its line");
}

// Randomized fuzz under small caches: constant evictions exercise the
// O-line writeback path (dirty eviction that must demote the directory
// entry to kShared, not erase it, while S copies survive) and the MSI
// upgrade-heavy flow; invariants are checked throughout. Mirrors
// fabric_test's RandomizedInvariantFuzz for the non-MESI tables.
class PolicyFuzzTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(PolicyFuzzTest, RandomizedInvariantFuzz) {
  MachineConfig cfg = default_config(4);
  cfg.protocol = GetParam();
  cfg.l1.size_bytes = 1024;
  cfg.l2.size_bytes = 4096;
  cfg.l2.associativity = 2;
  ASSERT_EQ(cfg.validate(), "");
  net::Network network(cfg);
  mem::HomeMap home_map(4, cfg.memory.page_bytes);
  CoherenceFabric fabric(cfg, network, home_map);

  std::uint64_t state = 0xf00du + static_cast<unsigned>(GetParam());
  auto next = [&state] {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };

  Cycle now = 0;
  for (int op = 0; op < 60'000; ++op) {
    const NodeId node = static_cast<NodeId>(next() % 4);
    const bool write = (next() % 100) < 40;
    const std::uint64_t r = next();
    const Addr addr = (r % 4 != 0) ? (r / 4 % 512) * 32
                                   : (r / 4 % (1 << 14)) * 32;
    now += 7;
    fabric.access(node, addr, write, now);
    if (op % 5'000 == 0) fabric.check_invariants();
  }
  fabric.check_invariants();

  // Protocol signatures over the same stream: MSI never creates E (every
  // private read-modify pays an upgrade); MOESI never pays a sharing
  // writeback on a read probe (only evicted dirty lines write back).
  std::uint64_t upgrades = 0;
  for (NodeId n = 0; n < 4; ++n) upgrades += fabric.stats(n).upgrades;
  if (GetParam() == Protocol::kMsi) {
    EXPECT_GT(upgrades, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, PolicyFuzzTest,
                         ::testing::Values(Protocol::kMsi, Protocol::kMesi,
                                           Protocol::kMoesi));

// ---- the sweep axis ----

TEST(ProtocolSweepTest, SeedAndLabelIgnoreAnEmptyProtocol) {
  driver::SpecPoint pt;
  pt.app = "LU";
  pt.nodes = 8;
  pt.detector = "bbv";
  pt.threshold = 0.5;
  pt.scale = apps::Scale::kTest;
  const std::uint64_t base_seed = driver::spec_seed(pt);
  const std::string base_label = driver::spec_label(pt);

  driver::SpecPoint with = pt;
  with.protocol = "moesi";
  EXPECT_NE(driver::spec_seed(with), base_seed);
  EXPECT_EQ(driver::spec_label(with), base_label + "/moesi");

  // Distinct protocols must draw distinct streams when the axis is swept.
  driver::SpecPoint other = with;
  other.protocol = "msi";
  EXPECT_NE(driver::spec_seed(other), driver::spec_seed(with));
}

TEST(ProtocolSweepTest, ExpandPutsProtocolInnermost) {
  driver::SweepSpec spec;
  spec.apps = {"LU"};
  spec.node_counts = {2, 4};
  spec.protocols = {"msi", "moesi"};
  const auto pts = spec.expand();
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts[0].protocol, "msi");
  EXPECT_EQ(pts[1].protocol, "moesi");
  EXPECT_EQ(pts[0].nodes, 2u);
  EXPECT_EQ(pts[2].nodes, 4u);
  for (std::size_t i = 0; i < pts.size(); ++i) EXPECT_EQ(pts[i].index, i);
}

TEST(ProtocolSweepTest, ProtocolNamesRoundTrip) {
  for (const Protocol p :
       {Protocol::kMsi, Protocol::kMesi, Protocol::kMoesi}) {
    Protocol back = Protocol::kMesi;
    EXPECT_TRUE(protocol_from_name(protocol_name(p), &back));
    EXPECT_EQ(back, p);
  }
  Protocol out;
  EXPECT_FALSE(protocol_from_name("mosi", &out));
  EXPECT_FALSE(protocol_from_name("MESI", &out));
  EXPECT_FALSE(protocol_from_name("", &out));
}

TEST(ProtocolSweepTest, ControlBytesAreValidated) {
  MachineConfig cfg = default_config(4);
  cfg.network.control_bytes = 0;
  EXPECT_NE(cfg.validate().find("control_bytes"), std::string::npos);
  cfg.network.control_bytes = cfg.l2.line_bytes + 1;
  EXPECT_NE(cfg.validate().find("control message"), std::string::npos);
  cfg.network.control_bytes = 8;
  EXPECT_EQ(cfg.validate(), "");
}

}  // namespace
}  // namespace dsm::coh
