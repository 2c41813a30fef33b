// policy_ref_diff_test.cpp — randomized lockstep differential test of the
// table-driven (CohPolicy) fabric against a retained reference
// implementation of the pre-seam inline MESI logic, in the style of
// cache_soa_diff_test. The reference below is the old
// CoherenceFabric::access/directory_request/fill_hierarchy/
// handle_l2_eviction code verbatim (modulo test-local naming): hard-coded
// E/M writability, the silent E->M store upgrade, E-grant to a sole
// reader, owner downgrade + sharing writeback on a dirty read probe, and
// the probe-free dirty-eviction erase. Both fabrics own private Network /
// HomeMap / MemController state and are driven with the identical access
// stream; every AccessOutcome field, every per-node counter, and the
// full cache/directory state must match at every step — any behavioral
// drift the MESI tables introduce fails here with the operation index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "coherence/fabric.hpp"
#include "common/config.hpp"
#include "memory/home_map.hpp"
#include "network/network.hpp"

namespace dsm::coh {
namespace {

using mem::LineState;
using net::TrafficClass;

// ---- reference: the pre-policy-seam MESI fabric, retained verbatim ----

class RefFabric {
 public:
  RefFabric(const MachineConfig& cfg, net::Network& network,
            mem::HomeMap& home_map)
      : cfg_(cfg), network_(network), home_map_(&home_map) {
    nodes_.reserve(cfg.num_nodes);
    for (NodeId n = 0; n < cfg.num_nodes; ++n) nodes_.emplace_back(cfg, n);
  }

  AccessOutcome access(NodeId node, Addr addr, bool is_write, Cycle now) {
    Node& me = nodes_[node];
    const Addr line = me.l2.line_of(addr);

    AccessOutcome out;
    out.write = is_write;
    out.home = home_map_->home_of(line);
    if (is_write) ++me.stats.stores; else ++me.stats.loads;

    const mem::Cache::LineRef w1 = me.l1.lookup(line);
    const LineState s1 = me.l1.state_of(w1);
    if (s1 != LineState::kInvalid) {
      const bool writable =
          (s1 == LineState::kModified || s1 == LineState::kExclusive);
      if (!is_write || writable) {
        me.l1.touch(w1);
        if (is_write && s1 == LineState::kExclusive) {
          me.l1.set_state(w1, LineState::kModified);
          const mem::Cache::LineRef w2 = me.l2.lookup(line);
          me.l2.set_state(w2, LineState::kModified);
        }
        ++me.stats.l1_hits;
        out.l1_hit = true;
        out.latency = cfg_.l1.latency_cycles;
        out.source = DataSource::kL1;
        return out;
      }
    } else {
      me.l1.record_miss();
    }

    Cycle lat = cfg_.l1.latency_cycles;

    const mem::Cache::LineRef w2 = me.l2.lookup(line);
    const LineState s2 = me.l2.state_of(w2);
    const bool l2_has_data = (s2 != LineState::kInvalid);
    const bool l2_writable =
        (s2 == LineState::kModified || s2 == LineState::kExclusive);
    lat += cfg_.l2.latency_cycles;
    if (l2_has_data && (!is_write || l2_writable)) {
      me.l2.touch(w2);
      ++me.stats.l2_hits;
      LineState grant = s2;
      if (is_write) {
        grant = LineState::kModified;
        me.l2.set_state(w2, LineState::kModified);
      }
      if (w1) {
        me.l1.touch(w1);
        me.l1.set_state(w1, grant);
      } else {
        const auto v1 = me.l1.fill(line, grant);
        if (v1 && v1->state == LineState::kModified)
          me.l2.set_state(me.l2.lookup(v1->line_addr), LineState::kModified);
      }
      out.latency = lat;
      out.source = DataSource::kL2;
      return out;
    }
    if (l2_has_data) me.l2.touch(w2);

    lat += directory_request(node, line, is_write, now + lat, out, w1, w2);
    out.latency = lat;
    return out;
  }

  const mem::Cache& l1(NodeId n) const { return nodes_[n].l1; }
  const mem::Cache& l2(NodeId n) const { return nodes_[n].l2; }
  const Directory& dir(NodeId n) const { return nodes_[n].dir; }
  const NodeCoherenceStats& stats(NodeId n) const { return nodes_[n].stats; }

 private:
  struct Node {
    mem::Cache l1;
    mem::Cache l2;
    Directory dir;
    mem::MemController ctrl;
    NodeCoherenceStats stats;
    Node(const MachineConfig& cfg, NodeId id)
        : l1(cfg.l1), l2(cfg.l2), dir(id), ctrl(cfg, id) {}
  };

  unsigned control_bytes() const { return 8; }
  unsigned data_bytes() const { return cfg_.l2.line_bytes; }

  Cycle directory_request(NodeId requestor, Addr line, bool is_write,
                          Cycle now, AccessOutcome& out,
                          mem::Cache::LineRef l1_ref,
                          mem::Cache::LineRef l2_ref) {
    Node& me = nodes_[requestor];
    const NodeId home = out.home;
    Node& h = nodes_[home];
    Cycle lat = 0;

    lat += network_.message_latency(requestor, home, control_bytes(), now,
                                    TrafficClass::kCoherence);
    lat += cfg_.memory.directory_latency_cycles;

    DirEntry& e = h.dir.entry(line);
    const bool requestor_had_data = static_cast<bool>(l2_ref);
    LineState grant = LineState::kInvalid;

    switch (e.state) {
      case DirEntry::State::kUncached: {
        lat += h.ctrl.request(line, now + lat, data_bytes(), requestor);
        lat += network_.message_latency(home, requestor, data_bytes(),
                                        now + lat, TrafficClass::kData);
        grant = is_write ? LineState::kModified : LineState::kExclusive;
        e.state = DirEntry::State::kExclusive;
        e.sharers = 0;
        e.add_sharer(requestor);
        e.owner = requestor;
        out.source = (home == requestor) ? DataSource::kLocalMem
                                         : DataSource::kRemoteMem;
        if (home == requestor) ++me.stats.local_mem;
        else ++me.stats.remote_mem;
        break;
      }
      case DirEntry::State::kShared: {
        if (is_write) {
          Cycle max_inval = 0;
          for (NodeId q = 0; q < nodes_.size(); ++q) {
            if (q == requestor || !e.is_sharer(q)) continue;
            Cycle t = network_.message_latency(home, q, control_bytes(),
                                               now + lat,
                                               TrafficClass::kCoherence);
            nodes_[q].l1.invalidate(line);
            nodes_[q].l2.invalidate(line);
            t += network_.message_latency(q, home, control_bytes(),
                                          now + lat + t,
                                          TrafficClass::kCoherence);
            max_inval = std::max(max_inval, t);
            ++me.stats.invalidations_sent;
            ++out.invalidations;
          }
          lat += max_inval;
          if (requestor_had_data) {
            lat += network_.message_latency(home, requestor, control_bytes(),
                                            now + lat,
                                            TrafficClass::kCoherence);
            out.source = DataSource::kUpgrade;
            ++me.stats.upgrades;
          } else {
            lat += h.ctrl.request(line, now + lat, data_bytes(), requestor);
            lat += network_.message_latency(home, requestor, data_bytes(),
                                            now + lat, TrafficClass::kData);
            out.source = (home == requestor) ? DataSource::kLocalMem
                                             : DataSource::kRemoteMem;
            if (home == requestor) ++me.stats.local_mem;
            else ++me.stats.remote_mem;
          }
          grant = LineState::kModified;
          e.state = DirEntry::State::kExclusive;
          e.sharers = 0;
          e.add_sharer(requestor);
          e.owner = requestor;
        } else {
          lat += h.ctrl.request(line, now + lat, data_bytes(), requestor);
          lat += network_.message_latency(home, requestor, data_bytes(),
                                          now + lat, TrafficClass::kData);
          grant = LineState::kShared;
          e.add_sharer(requestor);
          out.source = (home == requestor) ? DataSource::kLocalMem
                                           : DataSource::kRemoteMem;
          if (home == requestor) ++me.stats.local_mem;
          else ++me.stats.remote_mem;
        }
        break;
      }
      case DirEntry::State::kExclusive: {
        const NodeId q = e.owner;
        Node& owner = nodes_[q];
        lat += network_.message_latency(home, q, control_bytes(), now + lat,
                                        TrafficClass::kCoherence);
        const mem::Cache::LineRef ow1 = owner.l1.lookup(line);
        const mem::Cache::LineRef ow2 = owner.l2.lookup(line);
        const LineState owner_l1 = owner.l1.state_of(ow1);
        const LineState owner_l2 = owner.l2.state_of(ow2);
        const bool was_dirty = owner_l1 == LineState::kModified ||
                               owner_l2 == LineState::kModified;
        if (is_write) {
          owner.l1.invalidate(ow1);
          owner.l2.invalidate(ow2);
          ++me.stats.invalidations_sent;
          ++out.invalidations;
          e.sharers = 0;
          e.add_sharer(requestor);
          e.owner = requestor;
          grant = LineState::kModified;
        } else {
          owner.l1.downgrade(ow1);
          owner.l2.downgrade(ow2);
          if (was_dirty) {
            h.ctrl.request(line, now + lat, data_bytes(), q);
            network_.message_latency(q, home, data_bytes(), now + lat,
                                     TrafficClass::kData);
            ++owner.stats.writebacks;
          }
          e.state = DirEntry::State::kShared;
          e.add_sharer(requestor);
          e.owner = kNoNode;
          grant = LineState::kShared;
        }
        lat += network_.message_latency(q, requestor, data_bytes(), now + lat,
                                        TrafficClass::kData);
        out.source = DataSource::kRemoteCache;
        ++me.stats.cache_to_cache;
        break;
      }
      case DirEntry::State::kOwned:
        ADD_FAILURE() << "reference MESI directory reached kOwned";
        break;
    }

    if (out.source == DataSource::kUpgrade) {
      me.l2.set_state(l2_ref, LineState::kModified);
      if (l1_ref) {
        me.l1.set_state(l1_ref, LineState::kModified);
        me.l1.touch(l1_ref);
      } else {
        const auto v1 = me.l1.fill(line, LineState::kModified);
        if (v1 && v1->state == LineState::kModified)
          me.l2.set_state(me.l2.lookup(v1->line_addr), LineState::kModified);
      }
    } else {
      lat += fill_hierarchy(requestor, line, grant, now + lat);
    }
    return lat;
  }

  Cycle fill_hierarchy(NodeId requestor, Addr line, LineState st, Cycle now) {
    Node& me = nodes_[requestor];
    Cycle lat = 0;
    const auto v2 = me.l2.fill(line, st);
    if (v2) lat += handle_l2_eviction(requestor, *v2, now);
    const auto v1 = me.l1.fill(line, st);
    if (v1 && v1->state == LineState::kModified)
      me.l2.set_state(me.l2.lookup(v1->line_addr), LineState::kModified);
    return lat;
  }

  Cycle handle_l2_eviction(NodeId evictor, const mem::Victim& v, Cycle now) {
    Node& me = nodes_[evictor];
    const LineState l1_state = me.l1.invalidate(v.line_addr);
    const bool dirty = v.state == LineState::kModified ||
                       l1_state == LineState::kModified;

    const NodeId vhome = home_map_->home_of(v.line_addr);
    Node& h = nodes_[vhome];

    if (dirty) {
      ++me.stats.writebacks;
      const Cycle arrive =
          now + network_.message_latency(evictor, vhome, data_bytes(), now,
                                         TrafficClass::kData);
      h.ctrl.request(v.line_addr, arrive, data_bytes(), evictor);
      h.dir.erase(v.line_addr);
      return 0;
    }

    DirEntry& e = h.dir.entry(v.line_addr);
    e.remove_sharer(evictor);
    if (e.state == DirEntry::State::kExclusive && e.owner == evictor) {
      h.dir.erase(v.line_addr);
    } else if (e.sharer_count() == 0) {
      h.dir.erase(v.line_addr);
    }
    return 0;
  }

  const MachineConfig& cfg_;
  net::Network& network_;
  mem::HomeMap* home_map_;
  std::vector<Node> nodes_;
};

// ---- lockstep driver ----

// Small caches force the eviction/writeback paths constantly; the node
// count keeps the sharer fan-out and c2c traffic realistic.
MachineConfig diff_config(unsigned nodes) {
  MachineConfig cfg = default_config(nodes);
  cfg.l1.size_bytes = 1024;
  cfg.l2.size_bytes = 4096;
  cfg.l2.associativity = 2;
  EXPECT_EQ(cfg.validate(), "");
  return cfg;
}

struct StreamGen {
  std::uint64_t state;
  explicit StreamGen(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

TEST(PolicyRefDiffTest, MesiTablesMatchInlineReferenceLockstep) {
  constexpr unsigned kNodes = 4;
  constexpr int kOps = 200'000;
  const MachineConfig cfg = diff_config(kNodes);

  // Two private copies of every stateful component (network contention
  // epochs, controller occupancy, caches, directories): the only shared
  // input is the access stream.
  net::Network net_a(cfg), net_b(cfg);
  mem::HomeMap map_a(kNodes, cfg.memory.page_bytes);
  mem::HomeMap map_b(kNodes, cfg.memory.page_bytes);
  CoherenceFabric fabric(cfg, net_a, map_a);  // policy-driven, MESI tables
  RefFabric ref(cfg, net_b, map_b);           // inline MESI, pre-seam

  ASSERT_EQ(fabric.policy().protocol, Protocol::kMesi);

  StreamGen gen(0xd1ffu);
  Cycle now = 0;
  for (int op = 0; op < kOps; ++op) {
    const NodeId node = static_cast<NodeId>(gen.next() % kNodes);
    const bool write = (gen.next() % 100) < 40;
    // Mix: mostly a small contended pool (sharing, invalidations,
    // upgrades, c2c), the rest a wider range (evictions, cold misses).
    const std::uint64_t r = gen.next();
    const Addr addr = (r % 4 != 0)
                          ? (r / 4 % 512) * 32
                          : (r / 4 % (1 << 14)) * 32;
    now += 7;

    const AccessOutcome a = fabric.access(node, addr, write, now);
    const AccessOutcome b = ref.access(node, addr, write, now);
    ASSERT_EQ(a.latency, b.latency) << "op " << op;
    ASSERT_EQ(a.source, b.source) << "op " << op;
    ASSERT_EQ(a.home, b.home) << "op " << op;
    ASSERT_EQ(a.l1_hit, b.l1_hit) << "op " << op;
    ASSERT_EQ(a.invalidations, b.invalidations) << "op " << op;

    if (op % 10'000 == 0) {
      for (NodeId n = 0; n < kNodes; ++n) {
        const auto& sa = fabric.stats(n);
        const auto& sb = ref.stats(n);
        ASSERT_EQ(sa.l1_hits, sb.l1_hits) << "op " << op << " node " << n;
        ASSERT_EQ(sa.l2_hits, sb.l2_hits) << "op " << op << " node " << n;
        ASSERT_EQ(sa.local_mem, sb.local_mem) << "op " << op << " node " << n;
        ASSERT_EQ(sa.remote_mem, sb.remote_mem)
            << "op " << op << " node " << n;
        ASSERT_EQ(sa.cache_to_cache, sb.cache_to_cache)
            << "op " << op << " node " << n;
        ASSERT_EQ(sa.upgrades, sb.upgrades) << "op " << op << " node " << n;
        ASSERT_EQ(sa.invalidations_sent, sb.invalidations_sent)
            << "op " << op << " node " << n;
        ASSERT_EQ(sa.writebacks, sb.writebacks)
            << "op " << op << " node " << n;
      }
      fabric.check_invariants();
    }
  }

  // Terminal state equivalence: every resident line, state, and counter.
  for (NodeId n = 0; n < kNodes; ++n) {
    ASSERT_EQ(fabric.l1(n).resident_lines(), ref.l1(n).resident_lines());
    ASSERT_EQ(fabric.l2(n).resident_lines(), ref.l2(n).resident_lines());
    for (const Addr line : ref.l2(n).resident_lines()) {
      EXPECT_EQ(fabric.l2(n).state(line), ref.l2(n).state(line));
      const DirEntry ea = fabric.directory(map_a.home_of(line)).peek(line);
      const DirEntry eb = ref.dir(map_b.home_of(line)).peek(line);
      EXPECT_EQ(ea.state, eb.state);
      EXPECT_EQ(ea.sharers, eb.sharers);
      EXPECT_EQ(ea.owner, eb.owner);
    }
    for (const Addr line : ref.l1(n).resident_lines())
      EXPECT_EQ(fabric.l1(n).state(line), ref.l1(n).state(line));
    ASSERT_EQ(fabric.l2(n).evictions(), ref.l2(n).evictions());
    ASSERT_EQ(fabric.l2(n).invalidations_received(),
              ref.l2(n).invalidations_received());
    ASSERT_EQ(fabric.directory(n).tracked_lines(),
              ref.dir(n).tracked_lines());
  }
  fabric.check_invariants();
}

}  // namespace
}  // namespace dsm::coh
