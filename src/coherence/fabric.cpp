#include "coherence/fabric.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/bitops.hpp"

namespace dsm::coh {

using mem::LineState;
using net::TrafficClass;

namespace {
// Trace-event byte fields: the acting node, and the request's write bit.
std::uint8_t node_byte(NodeId n) { return static_cast<std::uint8_t>(n); }
std::uint8_t write_flag(bool is_write) {
  return is_write ? obs::TraceEvent::kWriteBit : 0;
}
}  // namespace

const char* data_source_name(DataSource s) {
  switch (s) {
    case DataSource::kL1: return "L1";
    case DataSource::kL2: return "L2";
    case DataSource::kLocalMem: return "LocalMem";
    case DataSource::kRemoteMem: return "RemoteMem";
    case DataSource::kRemoteCache: return "RemoteCache";
    case DataSource::kUpgrade: return "Upgrade";
  }
  return "?";
}

CoherenceFabric::Node::Node(const MachineConfig& cfg, NodeId id)
    : l1(cfg.l1),
      l2(cfg.l2),
      dir(id),
      ctrl(cfg, id) {}

CoherenceFabric::CoherenceFabric(const MachineConfig& cfg,
                                 net::Network& network,
                                 mem::HomeMap& home_map,
                                 obs::Observability* obs)
    : cfg_(cfg),
      pol_(&policy_for(cfg.protocol)),
      network_(network),
      home_map_(&home_map) {
  DSM_ASSERT_MSG(cfg.num_nodes <= kMaxNodes,
                 "full-map directory uses a 64-bit sharer bitset");
  for (unsigned st = 1; st < mem::kNumLineStates; ++st) {
    const auto s = static_cast<LineState>(st);
    l1_hit_states_[0] |= 1u << st;
    if (store_permitted(*pol_, s) && pol_->store_hit[st] == s)
      l1_hit_states_[1] |= 1u << st;
  }
  nodes_.reserve(cfg.num_nodes);
  for (NodeId n = 0; n < cfg.num_nodes; ++n) nodes_.emplace_back(cfg, n);
  if (obs != nullptr) {
    trace_ = obs->trace();
    if (obs->stats_enabled()) {
      const char* const kTrans[4][2] = {
          {"coh.trans.uncached_read", "coh.trans.uncached_write"},
          {"coh.trans.shared_read", "coh.trans.shared_write"},
          {"coh.trans.exclusive_read", "coh.trans.exclusive_write"},
          {"coh.trans.owned_read", "coh.trans.owned_write"}};
      for (unsigned st = 0; st < 4; ++st)
        for (unsigned w = 0; w < 2; ++w)
          obs_.trans[st][w] = obs->counter(kTrans[st][w]);
      obs_.fill_with_victim = obs->counter("coh.fill.with_victim");
      obs_.fill_no_victim = obs->counter("coh.fill.no_victim");
      obs_.evict_writeback = obs->counter("coh.evict.writeback");
      obs_.evict_clean = obs->counter("coh.evict.clean");
      // One histogram shared by every slice: probe lengths are a
      // property of the table algorithm, and per-home increments happen
      // in the same simulated order regardless of execution mode, so
      // the merged distribution stays deterministic.
      const obs::HistogramHandle probes = obs->histogram("dir.probe_len", 16);
      for (auto& node : nodes_) node.dir.set_probe_histogram(probes);
    }
  }
}

mem::Cache& CoherenceFabric::l1(NodeId n) { return nodes_.at(n).l1; }
mem::Cache& CoherenceFabric::l2(NodeId n) { return nodes_.at(n).l2; }
const mem::Cache& CoherenceFabric::l1(NodeId n) const {
  return nodes_.at(n).l1;
}
const mem::Cache& CoherenceFabric::l2(NodeId n) const {
  return nodes_.at(n).l2;
}
Directory& CoherenceFabric::directory(NodeId home) {
  return nodes_.at(home).dir;
}
mem::MemController& CoherenceFabric::controller(NodeId home) {
  return nodes_.at(home).ctrl;
}
const NodeCoherenceStats& CoherenceFabric::stats(NodeId n) const {
  return nodes_.at(n).stats;
}

AccessOutcome CoherenceFabric::access_miss(NodeId node, Addr line,
                                           bool is_write, Cycle now,
                                           mem::Cache::LineRef w1,
                                           LineState s1) {
  Node& me = nodes_[node];
  AccessOutcome out;
  out.write = is_write;
  out.home = home_map_->home_of(line, node);
  if (is_write) ++me.stats.stores; else ++me.stats.loads;

  // ---- L1: access()'s tag walk, reused below ----
  if (s1 != LineState::kInvalid) {
    if (store_permitted(*pol_, s1)) {
      // Silent store-hit upgrade (E->M under MESI/MOESI), mirrored in
      // the (inclusive) L2. A load, or a store that changes no state,
      // hit inline in access().
      me.l1.touch(w1);
      const LineState next = pol_->store_hit[static_cast<unsigned>(s1)];
      me.l1.set_state(w1, next);
      const mem::Cache::LineRef w2 = me.l2.lookup(line);
      DSM_ASSERT(w2);
      me.l2.set_state(w2, next);
      ++me.stats.l1_hits;
      out.l1_hit = true;
      out.latency = cfg_.l1.latency_cycles;
      out.source = DataSource::kL1;
      return out;
    }
    // L1 hit in S but we need write permission: fall through to the
    // directory upgrade path. Count the tag probe, not a hit.
  } else {
    me.l1.record_miss();
  }

  Cycle lat = cfg_.l1.latency_cycles;

  // ---- L2: ONE fused walk answers presence, fill way, and predicted
  // victim (lookup_for_fill) — the refill path below never re-walks the
  // set.
  const mem::Cache::FillCursor c2 = me.l2.lookup_for_fill(line);
  const mem::Cache::LineRef w2 = c2.ref;
  const LineState s2 = me.l2.state_of(w2);
  const bool l2_has_data = (s2 != LineState::kInvalid);
  const bool l2_writable = store_permitted(*pol_, s2);
  lat += cfg_.l2.latency_cycles;
  if (l2_has_data && (!is_write || l2_writable)) {
    me.l2.touch(w2);
    ++me.stats.l2_hits;
    LineState grant = s2;
    if (is_write) {
      grant = pol_->store_hit[static_cast<unsigned>(s2)];
      me.l2.set_state(w2, grant);
    }
    refill_l1(me, line, w1, grant);
    out.latency = lat;
    out.source = DataSource::kL2;
    return out;
  }
  // The request goes to the home directory: put the line's probe slot in
  // flight while the network walk below runs. Issued only here, past the
  // L2 lookup, so no hit pays for it. A hint only.
  nodes_[out.home].dir.prefetch(line);
  if (l2_has_data) {
    me.l2.touch(w2);  // S-upgrade: data present, touch LRU
  } else if (c2.victim_line != mem::Cache::FillCursor::kNoLine) {
    // True miss: the fill below will displace the predicted victim. Warm
    // its home-directory slot too, while the directory round-trip below
    // hides the host latency.
    const NodeId vh = home_map_->peek_home(c2.victim_line);
    if (vh != kNoNode) nodes_[vh].dir.prefetch(c2.victim_line);
  }

  // ---- Directory ----
  // Trace only the miss path: L1/L2 hit arms stay event-free.
  trace({.ts = now, .addr = line, .kind = obs::TraceEvent::kMissStart,
         .node = node_byte(node), .flags = write_flag(is_write),
         .aux = out.home});
  lat += directory_request(node, line, is_write, now + lat, out, w1, c2);
  out.latency = lat;
  trace({.ts = now, .addr = line, .arg = out.latency,
         .kind = obs::TraceEvent::kMissFill, .node = node_byte(node),
         .flags = static_cast<std::uint8_t>(
             write_flag(is_write) | (static_cast<unsigned>(out.source)
                                     << obs::TraceEvent::kSourceShift)),
         .aux = out.home});
  return out;
}

Cycle CoherenceFabric::directory_request(NodeId requestor, Addr line,
                                         bool is_write, Cycle now,
                                         AccessOutcome& out,
                                         mem::Cache::LineRef l1_ref,
                                         const mem::Cache::FillCursor& l2_cursor) {
  Node& me = nodes_[requestor];
  Txn t{requestor, out.home, line, is_write, now, 0, out};
  // Request travels to the home node's directory.
  t.lat += network_.message_latency(requestor, t.home, control_bytes(), now,
                                    TrafficClass::kCoherence);
  t.lat += cfg_.memory.directory_latency_cycles;
  trace({.ts = t.at(), .addr = line, .kind = obs::TraceEvent::kDirRequest,
         .node = node_byte(requestor), .flags = write_flag(is_write),
         .aux = t.home});

  DirEntry& e = nodes_[t.home].dir.entry(line);
  obs_.trans[static_cast<unsigned>(e.state)][is_write].inc();
  // Data already in the L2 means a store to a read-only copy (a read
  // would have hit): only write permission is missing.
  const bool upgrade = static_cast<bool>(l2_cursor.ref);
  const NodeId q = e.owner;
  // A write always ends as the sole M copy; a read gets S unless it is
  // the sole reader of an uncached line.
  LineState grant = is_write ? LineState::kModified : LineState::kShared;

  switch (e.state) {
    case DirEntry::State::kUncached:
      // What a sole READER gets is the policy's call: E under MESI/MOESI
      // (so a later store upgrades silently), plain S under MSI.
      fetch_from_home(t);
      if (!is_write) {
        grant = pol_->sole_read_grant;
        e.state = pol_->sole_read_dir;
        e.owner = e.state == DirEntry::State::kExclusive ? requestor : kNoNode;
        e.add_sharer(requestor);
      }
      break;
    case DirEntry::State::kShared:
      // Memory holds a clean copy.
      if (is_write) invalidate_sharers(t, e.sharers);
      if (upgrade) grant_upgrade(t); else fetch_from_home(t);
      if (!is_write) e.add_sharer(requestor);
      break;
    case DirEntry::State::kExclusive: {
      DSM_ASSERT_MSG(q != requestor,
                     "requestor cannot be the registered owner on a miss");
      forward_to_owner(t, q);
      Node& owner = nodes_[q];
      const mem::Cache::LineRef ow1 = owner.l1.lookup(line);
      const mem::Cache::LineRef ow2 = owner.l2.lookup(line);
      const LineState owner_l2 = owner.l2.state_of(ow2);
      DSM_ASSERT_MSG(owner_l2 == LineState::kExclusive ||
                         owner_l2 == LineState::kModified,
                     "directory owner must hold the line E or M");
      const bool was_dirty = owner.l1.state_of(ow1) == LineState::kModified ||
                             owner_l2 == LineState::kModified;
      if (is_write) {
        owner.l1.invalidate(ow1);
        owner.l2.invalidate(ow2);
        ++me.stats.invalidations_sent;
        ++out.invalidations;
      } else {
        owner.l1.downgrade(ow1);
        e.add_sharer(requestor);
        if (pol_->has_owned && was_dirty) {
          // MOESI: the dirty owner keeps its data as Owned and forwards
          // it cache-to-cache below — no memory writeback; home memory
          // stays stale until the O copy is evicted. The owner stays
          // registered (and a sharer) so later requests forward to it.
          owner.l2.set_state(ow2, LineState::kOwned);
          e.state = DirEntry::State::kOwned;
        } else {
          owner.l2.downgrade(ow2);
          if (was_dirty) {
            // Sharing writeback: the home's memory is refreshed off the
            // requestor's critical path, but the controller is occupied.
            nodes_[t.home].ctrl.request(line, t.at(), data_bytes(), q);
            network_.message_latency(q, t.home, data_bytes(), t.at(),
                                     TrafficClass::kData);
            ++owner.stats.writebacks;
          }
          e.state = DirEntry::State::kShared;
          e.owner = kNoNode;
        }
      }
      cache_to_cache(t, q);
      break;
    }
    case DirEntry::State::kOwned:
      // MOESI only: a dirty Owned copy exists at e.owner and home memory
      // is stale, so the data always come from the owner. Like kShared
      // otherwise: a write invalidates every other copy (the owner's too,
      // unless the requestor IS the owner upgrading its O copy); a read
      // leaves the owner in O and only adds the new sharer.
      DSM_ASSERT_MSG(pol_->has_owned, "kOwned entry under a non-MOESI policy");
      DSM_ASSERT(q != kNoNode);
      if (is_write) invalidate_sharers(t, e.sharers);
      if (upgrade) {
        grant_upgrade(t);
      } else {
        DSM_ASSERT_MSG(q != requestor, "the owner missed on its own O line");
        forward_to_owner(t, q);
        cache_to_cache(t, q);
      }
      if (!is_write) e.add_sharer(requestor);
      break;
  }
  if (is_write) {
    // Every write leaves the requestor the sole, registered owner.
    e.state = DirEntry::State::kExclusive;
    e.sharers = 0;
    e.add_sharer(requestor);
    e.owner = requestor;
  }

  // Install locally. The cached tag-walk handles are still valid:
  // everything above only touched other nodes' caches.
  if (upgrade) {
    me.l2.set_state(l2_cursor.ref, grant);
  } else {
    // fill_at reuses access()'s miss cursor (and asserts its freshness),
    // so the refill pays ONE associative search of the L2 set.
    const auto v2 = me.l2.fill_at(l2_cursor, line, grant);
    (v2 ? obs_.fill_with_victim : obs_.fill_no_victim).inc();
    if (v2) handle_l2_eviction(requestor, *v2, t.at());
  }
  refill_l1(me, line, l1_ref, grant);
  return t.lat;
}

void CoherenceFabric::invalidate_sharers(Txn& t, std::uint64_t sharers) {
  // Bit-scanning visits the sharers in ascending node order, in
  // O(popcount).
  NodeCoherenceStats& stats = nodes_[t.requestor].stats;
  Cycle slowest = 0;
  for_each_set_bit(
      sharers & ~(std::uint64_t{1} << t.requestor), [&](unsigned qb) {
        const NodeId q = static_cast<NodeId>(qb);
        Cycle rt = network_.message_latency(t.home, q, control_bytes(),
                                            t.at(), TrafficClass::kCoherence);
        nodes_[q].l1.invalidate(t.line);
        nodes_[q].l2.invalidate(t.line);
        rt += network_.message_latency(q, t.home, control_bytes(),
                                       t.at() + rt, TrafficClass::kCoherence);
        slowest = std::max(slowest, rt);
        ++stats.invalidations_sent;
        ++t.out.invalidations;
      });
  t.lat += slowest;
}

void CoherenceFabric::fetch_from_home(Txn& t) {
  t.lat += nodes_[t.home].ctrl.request(t.line, t.at(), data_bytes(),
                                       t.requestor);
  t.lat += network_.message_latency(t.home, t.requestor, data_bytes(),
                                    t.at(), TrafficClass::kData);
  NodeCoherenceStats& stats = nodes_[t.requestor].stats;
  if (t.home == t.requestor) {
    t.out.source = DataSource::kLocalMem;
    ++stats.local_mem;
  } else {
    t.out.source = DataSource::kRemoteMem;
    ++stats.remote_mem;
  }
}

void CoherenceFabric::forward_to_owner(Txn& t, NodeId q) {
  t.lat += network_.message_latency(t.home, q, control_bytes(), t.at(),
                                    TrafficClass::kCoherence);
  trace({.ts = t.at(), .addr = t.line, .kind = obs::TraceEvent::kDirForward,
         .node = node_byte(t.requestor), .flags = write_flag(t.is_write),
         .aux = q});
}

void CoherenceFabric::cache_to_cache(Txn& t, NodeId q) {
  t.lat += network_.message_latency(q, t.requestor, data_bytes(), t.at(),
                                    TrafficClass::kData);
  t.out.source = DataSource::kRemoteCache;
  ++nodes_[t.requestor].stats.cache_to_cache;
}

void CoherenceFabric::grant_upgrade(Txn& t) {
  // Permission only, no data transfer.
  t.lat += network_.message_latency(t.home, t.requestor, control_bytes(),
                                    t.at(), TrafficClass::kCoherence);
  t.out.source = DataSource::kUpgrade;
  ++nodes_[t.requestor].stats.upgrades;
}

void CoherenceFabric::refill_l1(Node& n, Addr line, mem::Cache::LineRef l1_ref,
                                LineState st) {
  if (l1_ref) {
    n.l1.touch(l1_ref);
    n.l1.set_state(l1_ref, st);
    return;
  }
  const auto v1 = n.l1.fill(line, st);
  if (v1 && v1->state == LineState::kModified) {
    const mem::Cache::LineRef wv = n.l2.lookup(v1->line_addr);
    DSM_ASSERT_MSG(wv, "L1/L2 inclusion broken");
    n.l2.set_state(wv, LineState::kModified);
  }
}

void CoherenceFabric::handle_l2_eviction(NodeId evictor, const mem::Victim& v,
                                         Cycle now) {
  Node& me = nodes_[evictor];
  // Inclusion: purge the L1 copy; it may carry the dirty bit.
  const LineState l1_state = me.l1.invalidate(v.line_addr);
  const bool dirty = v.state == LineState::kModified ||
                     v.state == LineState::kOwned ||
                     l1_state == LineState::kModified;

  const NodeId vhome = home_map_->home_of(v.line_addr, evictor);
  Node& h = nodes_[vhome];

  if (dirty) {
    // Dirty writeback: buffered off the critical path; the traffic and the
    // home controller occupancy are still real.
    ++me.stats.writebacks;
    obs_.evict_writeback.inc();
    trace({.ts = now, .addr = v.line_addr, .kind = obs::TraceEvent::kWriteback,
           .node = node_byte(evictor), .aux = vhome});
    const Cycle arrive =
        now + network_.message_latency(evictor, vhome, data_bytes(), now,
                                       TrafficClass::kData);
    h.ctrl.request(v.line_addr, arrive, data_bytes(), evictor);
    if (!pol_->has_owned) {
      // MSI/MESI: a dirty line is the only copy, so its entry is erased
      // in place — no entry() probe first: this path never reads the
      // state it is about to drop.
      h.dir.erase(v.line_addr);
      return;
    }
  } else {
    obs_.evict_clean.inc();  // silent on the wire
  }
  // The directory stays precise: the evictor leaves the sharer set and
  // the last copy's departure erases the entry (erase() invalidates `e`
  // — it is the last use). An evicted MOESI O line may leave S copies
  // behind; the writeback just refreshed home memory, so their entry
  // becomes a plain kShared.
  DirEntry& e = h.dir.entry(v.line_addr);
  e.remove_sharer(evictor);
  if (e.sharer_count() == 0) {
    h.dir.erase(v.line_addr);
  } else if (dirty) {
    e.state = DirEntry::State::kShared;
    e.owner = kNoNode;
  }
}

void CoherenceFabric::check_invariants() const {
  const unsigned n = static_cast<unsigned>(nodes_.size());
  // 1) L1 subset of L2 with compatible states, and no state the policy
  //    cannot install (no E under MSI, no O outside MOESI).
  for (unsigned p = 0; p < n; ++p) {
    for (const Addr line : nodes_[p].l1.resident_lines()) {
      DSM_ASSERT_MSG(nodes_[p].l2.probe(line), "L1 line missing from L2");
      const LineState s1 = nodes_[p].l1.state(line);
      const LineState s2 = nodes_[p].l2.state(line);
      DSM_ASSERT_MSG(state_allowed(*pol_, s1),
                     "L1 state unreachable under this protocol");
      if (s1 == LineState::kModified)
        DSM_ASSERT_MSG(s2 == LineState::kModified, "dirty L1 over non-M L2");
      if (s1 == LineState::kExclusive)
        DSM_ASSERT_MSG(s2 == LineState::kExclusive || s2 == LineState::kModified,
                       "E in L1 over weaker L2");
      if (s1 == LineState::kOwned)
        DSM_ASSERT_MSG(s2 == LineState::kOwned, "O in L1 over non-O L2");
    }
  }
  // 2) Every sharer bit names a cached copy with a compatible state. The
  //    walk visits only the lines some cache holds (a slice tracks
  //    exactly those), so it never reads an L2 set the run left
  //    untouched. Under MOESI this also enforces the single-Owner rule:
  //    two O copies of one line would each demand e.owner == themselves.
  std::uint64_t attributed = 0;
  for (NodeId h = 0; h < n; ++h) {
    nodes_[h].dir.for_each([&](Addr line, const DirEntry& e) {
      DSM_ASSERT_MSG(home_map_->peek_home(line) == h,
                     "directory entry away from the line's home");
      for_each_set_bit(e.sharers, [&](unsigned p) {
        ++attributed;
        DSM_ASSERT_MSG(p < n, "directory attributes a line no cache holds");
        const LineState s = nodes_[p].l2.state(line);
        DSM_ASSERT_MSG(s != LineState::kInvalid,
                       "directory attributes a line no cache holds");
        DSM_ASSERT_MSG(state_allowed(*pol_, s),
                       "L2 state unreachable under this protocol");
        if (s == LineState::kExclusive || s == LineState::kModified) {
          DSM_ASSERT_MSG(
              e.state == DirEntry::State::kExclusive && e.owner == p,
              "E/M copy without directory ownership");
          DSM_ASSERT_MSG(e.sharer_count() == 1, "owner plus extra sharers");
        } else if (s == LineState::kOwned) {
          DSM_ASSERT_MSG(e.state == DirEntry::State::kOwned && e.owner == p,
                         "O copy without directory kOwned ownership");
        } else {
          DSM_ASSERT_MSG(e.state == DirEntry::State::kShared ||
                             e.state == DirEntry::State::kOwned,
                         "S copy but directory not in Shared/Owned");
          if (e.state == DirEntry::State::kOwned)
            DSM_ASSERT_MSG(e.owner != p, "registered owner holds S, not O");
        }
      });
      // A registered owner still holds its line: O for kOwned, E or M for
      // kExclusive. An evicted owner is no sharer, so the walk above
      // does not see it.
      if (e.state == DirEntry::State::kOwned ||
          e.state == DirEntry::State::kExclusive) {
        DSM_ASSERT_MSG(e.owner < n, "registered owner is no node");
        const LineState so = nodes_[e.owner].l2.state(line);
        DSM_ASSERT_MSG(e.state == DirEntry::State::kOwned
                           ? so == LineState::kOwned
                           : so == LineState::kExclusive ||
                                 so == LineState::kModified,
                       "registered owner does not hold its line");
      }
    });
  }
  // 3) Every cached copy is attributed: each bit above named a distinct
  //    copy, so equal totals leave no copy its directory does not list.
  std::uint64_t resident = 0;
  for (const Node& node : nodes_) resident += node.l2.resident_count();
  DSM_ASSERT_MSG(resident == attributed,
                 "cache holds line the directory does not attribute");
}

}  // namespace dsm::coh
