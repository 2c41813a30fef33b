#include "coherence/fabric.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/bitops.hpp"

namespace dsm::coh {

using mem::LineState;
using net::TrafficClass;

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
  DSM_ASSERT_MSG(cfg.num_nodes <= 64,
                 "full-map directory uses a 64-bit sharer bitset");
  nodes_.reserve(cfg.num_nodes);
  for (NodeId n = 0; n < cfg.num_nodes; ++n) nodes_.emplace_back(cfg, n);
  if (obs != nullptr) {
    trace_ = obs->trace();
    if (obs->stats_enabled()) {
      obs_.trans_uncached_read = obs->counter("coh.trans.uncached_read");
      obs_.trans_uncached_write = obs->counter("coh.trans.uncached_write");
      obs_.trans_shared_read = obs->counter("coh.trans.shared_read");
      obs_.trans_shared_write = obs->counter("coh.trans.shared_write");
      obs_.trans_exclusive_read = obs->counter("coh.trans.exclusive_read");
      obs_.trans_exclusive_write = obs->counter("coh.trans.exclusive_write");
      obs_.trans_owned_read = obs->counter("coh.trans.owned_read");
      obs_.trans_owned_write = obs->counter("coh.trans.owned_write");
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

AccessOutcome CoherenceFabric::access(NodeId node, Addr addr, bool is_write,
                                      Cycle now) {
  DSM_ASSERT(node < nodes_.size());
  Node& me = nodes_[node];
  const Addr line = me.l2.line_of(addr);

  // Overlap the host-memory misses this access is about to take: the L2
  // set record and the home directory's probe slot are independent lines,
  // so putting them in flight now turns the walk below from a chain of
  // serialized misses into parallel ones. Hints only — no simulated
  // state or timing changes.
  me.l2.prefetch_set(line);
  AccessOutcome out;
  out.write = is_write;
  out.home = home_map_->home_of(line, node);
  nodes_[out.home].dir.prefetch(line);
  if (is_write) ++me.stats.stores; else ++me.stats.loads;

  // ---- L1: one tag walk, reused below ----
  const mem::Cache::LineRef w1 = me.l1.lookup(line);
  const LineState s1 = me.l1.state_of(w1);
  if (s1 != LineState::kInvalid) {
    if (!is_write || store_permitted(*pol_, s1)) {
      me.l1.touch(w1);
      const LineState next = pol_->store_hit[static_cast<unsigned>(s1)];
      if (is_write && next != s1) {
        // Silent store-hit upgrade (E->M under MESI/MOESI), mirrored in
        // the (inclusive) L2.
        me.l1.set_state(w1, next);
        const mem::Cache::LineRef w2 = me.l2.lookup(line);
        DSM_ASSERT(w2);
        me.l2.set_state(w2, next);
      }
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
    // Refill L1 from L2 (w1 may be a resident S way on a read after an L1
    // conflict miss).
    if (w1) {
      me.l1.touch(w1);
      me.l1.set_state(w1, grant);
    } else {
      const auto v1 = me.l1.fill(line, grant);
      if (v1 && v1->state == LineState::kModified) {
        const mem::Cache::LineRef wv = me.l2.lookup(v1->line_addr);
        DSM_ASSERT_MSG(wv, "L1/L2 inclusion broken");
        me.l2.set_state(wv, LineState::kModified);
      }
    }
    out.latency = lat;
    out.source = DataSource::kL2;
    return out;
  }
  if (l2_has_data) {
    me.l2.touch(w2);  // S-upgrade: data present, touch LRU
  } else if (c2.victim_line != mem::Cache::FillCursor::kNoLine) {
    // True miss: the fill below will displace the predicted victim, whose
    // home-directory slot the up-front prefetch did not cover. Warm it
    // now, while the directory round-trip below hides the host latency.
    const NodeId vh = home_map_->peek_home(c2.victim_line);
    if (vh != kNoNode) nodes_[vh].dir.prefetch(c2.victim_line);
  }

  // ---- Directory ----
  // Trace only the miss path: L1/L2 hit arms stay event-free.
  if (trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.ts = now;
    ev.addr = line;
    ev.kind = obs::TraceEvent::kMissStart;
    ev.node = static_cast<std::uint8_t>(node);
    ev.flags = is_write ? obs::TraceEvent::kWriteBit : 0;
    ev.aux = out.home;
    trace_->record(ev);
  }
  lat += directory_request(node, line, is_write, now + lat, out, w1, c2);
  out.latency = lat;
  if (trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.ts = now;
    ev.addr = line;
    ev.arg = out.latency;
    ev.kind = obs::TraceEvent::kMissFill;
    ev.node = static_cast<std::uint8_t>(node);
    ev.flags = static_cast<std::uint8_t>(
        (is_write ? obs::TraceEvent::kWriteBit : 0) |
        (static_cast<unsigned>(out.source) << obs::TraceEvent::kSourceShift));
    ev.aux = out.home;
    trace_->record(ev);
  }
  return out;
}

Cycle CoherenceFabric::directory_request(NodeId requestor, Addr line,
                                         bool is_write, Cycle now,
                                         AccessOutcome& out,
                                         mem::Cache::LineRef l1_ref,
                                         const mem::Cache::FillCursor& l2_cursor) {
  Node& me = nodes_[requestor];
  const mem::Cache::LineRef l2_ref = l2_cursor.ref;
  const NodeId home = out.home;
  Node& h = nodes_[home];
  Cycle lat = 0;

  // Request travels to the home node's directory.
  lat += network_.message_latency(requestor, home, control_bytes(), now,
                                  TrafficClass::kCoherence);
  lat += cfg_.memory.directory_latency_cycles;

  if (trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.ts = now + lat;
    ev.addr = line;
    ev.kind = obs::TraceEvent::kDirRequest;
    ev.node = static_cast<std::uint8_t>(requestor);
    ev.flags = is_write ? obs::TraceEvent::kWriteBit : 0;
    ev.aux = home;
    trace_->record(ev);
  }

  DirEntry& e = h.dir.entry(line);
  const bool requestor_had_data = static_cast<bool>(l2_ref);
  // Every switch arm assigns grant; kInvalid would trip fill_hierarchy's
  // assert if one ever stopped doing so.
  LineState grant = LineState::kInvalid;

  switch (e.state) {
    case DirEntry::State::kUncached: {
      (is_write ? obs_.trans_uncached_write : obs_.trans_uncached_read).inc();
      // Fetch from home memory. A write is granted M everywhere; what a
      // sole READER gets is the policy's call — E under MESI/MOESI (so a
      // later store upgrades silently), plain S under MSI.
      lat += h.ctrl.request(line, now + lat, data_bytes(), requestor);
      lat += network_.message_latency(home, requestor, data_bytes(),
                                      now + lat, TrafficClass::kData);
      if (is_write) {
        grant = LineState::kModified;
        e.state = DirEntry::State::kExclusive;
        e.owner = requestor;
      } else {
        grant = pol_->sole_read_grant;
        e.state = pol_->sole_read_dir;
        e.owner = (e.state == DirEntry::State::kExclusive) ? requestor
                                                           : kNoNode;
      }
      e.sharers = 0;
      e.add_sharer(requestor);
      out.source = (home == requestor) ? DataSource::kLocalMem
                                       : DataSource::kRemoteMem;
      if (home == requestor) ++me.stats.local_mem; else ++me.stats.remote_mem;
      break;
    }
    case DirEntry::State::kShared: {
      (is_write ? obs_.trans_shared_write : obs_.trans_shared_read).inc();
      if (is_write) {
        // Invalidate every other sharer; acks return in parallel, so the
        // cost is the slowest round trip. Bit-scanning the sharer set
        // visits the same nodes in the same ascending order as a full
        // 0..nodes scan, in O(popcount).
        Cycle max_inval = 0;
        for_each_set_bit(
            e.sharers & ~(std::uint64_t{1} << requestor), [&](unsigned qb) {
              const NodeId q = static_cast<NodeId>(qb);
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
            });
        lat += max_inval;
        if (requestor_had_data) {
          // Upgrade: permission only, no data transfer.
          lat += network_.message_latency(home, requestor, control_bytes(),
                                          now + lat, TrafficClass::kCoherence);
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
        // Memory holds a clean copy in Shared.
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
      (is_write ? obs_.trans_exclusive_write : obs_.trans_exclusive_read)
          .inc();
      const NodeId q = e.owner;
      DSM_ASSERT_MSG(q != requestor,
                     "requestor cannot be the registered owner on a miss");
      Node& owner = nodes_[q];
      // Forward the request to the current owner.
      lat += network_.message_latency(home, q, control_bytes(), now + lat,
                                      TrafficClass::kCoherence);
      if (trace_ != nullptr) {
        obs::TraceEvent ev;
        ev.ts = now + lat;
        ev.addr = line;
        ev.kind = obs::TraceEvent::kDirForward;
        ev.node = static_cast<std::uint8_t>(requestor);
        ev.flags = is_write ? obs::TraceEvent::kWriteBit : 0;
        ev.aux = q;
        trace_->record(ev);
      }
      const mem::Cache::LineRef ow1 = owner.l1.lookup(line);
      const mem::Cache::LineRef ow2 = owner.l2.lookup(line);
      const LineState owner_l1 = owner.l1.state_of(ow1);
      const LineState owner_l2 = owner.l2.state_of(ow2);
      DSM_ASSERT_MSG(owner_l2 == LineState::kExclusive ||
                         owner_l2 == LineState::kModified,
                     "directory owner must hold the line E or M");
      const bool was_dirty =
          owner_l1 == LineState::kModified || owner_l2 == LineState::kModified;
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
        if (pol_->has_owned && was_dirty) {
          // MOESI: the dirty owner keeps its data as Owned and forwards
          // it cache-to-cache below — no memory writeback; home memory
          // stays stale until the O copy is evicted. The owner stays
          // registered (and a sharer) so later requests forward to it.
          owner.l2.set_state(ow2, LineState::kOwned);
          e.state = DirEntry::State::kOwned;
          e.add_sharer(requestor);
        } else {
          owner.l2.downgrade(ow2);
          if (was_dirty) {
            // Sharing writeback: the home's memory is refreshed off the
            // requestor's critical path, but the controller is occupied.
            h.ctrl.request(line, now + lat, data_bytes(), q);
            network_.message_latency(q, home, data_bytes(), now + lat,
                                     TrafficClass::kData);
            ++owner.stats.writebacks;
          }
          e.state = DirEntry::State::kShared;
          e.add_sharer(requestor);
          e.owner = kNoNode;
        }
        grant = LineState::kShared;
      }
      // Cache-to-cache transfer, owner -> requestor.
      lat += network_.message_latency(q, requestor, data_bytes(), now + lat,
                                      TrafficClass::kData);
      out.source = DataSource::kRemoteCache;
      ++me.stats.cache_to_cache;
      break;
    }
    case DirEntry::State::kOwned: {
      (is_write ? obs_.trans_owned_write : obs_.trans_owned_read).inc();
      // MOESI only: a dirty Owned copy exists at e.owner; home memory is
      // stale, so data always comes from the owner, never from h.ctrl.
      DSM_ASSERT_MSG(pol_->has_owned, "kOwned entry under a non-MOESI policy");
      const NodeId q = e.owner;
      DSM_ASSERT(q != kNoNode);
      if (is_write) {
        // Invalidate every sharer but the requestor (the owner included,
        // unless the requestor IS the owner upgrading its O copy); acks
        // return in parallel, so the cost is the slowest round trip.
        Cycle max_inval = 0;
        for_each_set_bit(
            e.sharers & ~(std::uint64_t{1} << requestor), [&](unsigned qb) {
              const NodeId s = static_cast<NodeId>(qb);
              Cycle t = network_.message_latency(home, s, control_bytes(),
                                                 now + lat,
                                                 TrafficClass::kCoherence);
              nodes_[s].l1.invalidate(line);
              nodes_[s].l2.invalidate(line);
              t += network_.message_latency(s, home, control_bytes(),
                                            now + lat + t,
                                            TrafficClass::kCoherence);
              max_inval = std::max(max_inval, t);
              ++me.stats.invalidations_sent;
              ++out.invalidations;
            });
        lat += max_inval;
        if (requestor_had_data) {
          // The requestor already holds the data (S, or O when it is the
          // owner): permission only.
          lat += network_.message_latency(home, requestor, control_bytes(),
                                          now + lat, TrafficClass::kCoherence);
          out.source = DataSource::kUpgrade;
          ++me.stats.upgrades;
        } else {
          // Memory is stale: forward the request to the (just
          // invalidated) owner, which supplies the only valid data.
          DSM_ASSERT_MSG(q != requestor, "ownerless O-line write");
          lat += network_.message_latency(home, q, control_bytes(), now + lat,
                                          TrafficClass::kCoherence);
          if (trace_ != nullptr) {
            obs::TraceEvent ev;
            ev.ts = now + lat;
            ev.addr = line;
            ev.kind = obs::TraceEvent::kDirForward;
            ev.node = static_cast<std::uint8_t>(requestor);
            ev.flags = obs::TraceEvent::kWriteBit;
            ev.aux = q;
            trace_->record(ev);
          }
          lat += network_.message_latency(q, requestor, data_bytes(),
                                          now + lat, TrafficClass::kData);
          out.source = DataSource::kRemoteCache;
          ++me.stats.cache_to_cache;
        }
        grant = LineState::kModified;
        e.state = DirEntry::State::kExclusive;
        e.sharers = 0;
        e.add_sharer(requestor);
        e.owner = requestor;
      } else {
        // Read: forward from the owner, cache-to-cache; the owner keeps
        // O and the directory entry is untouched except for the new
        // sharer. (The owner itself never read-misses an O line — its L2
        // serves it — so q != requestor here.)
        DSM_ASSERT_MSG(q != requestor, "owner read-missed its own O line");
        lat += network_.message_latency(home, q, control_bytes(), now + lat,
                                        TrafficClass::kCoherence);
        if (trace_ != nullptr) {
          obs::TraceEvent ev;
          ev.ts = now + lat;
          ev.addr = line;
          ev.kind = obs::TraceEvent::kDirForward;
          ev.node = static_cast<std::uint8_t>(requestor);
          ev.aux = q;
          trace_->record(ev);
        }
        lat += network_.message_latency(q, requestor, data_bytes(), now + lat,
                                        TrafficClass::kData);
        e.add_sharer(requestor);
        grant = LineState::kShared;
        out.source = DataSource::kRemoteCache;
        ++me.stats.cache_to_cache;
      }
      break;
    }
  }

  // Install / upgrade locally. The cached tag-walk handles are still valid:
  // everything above only touched other nodes' caches.
  if (out.source == DataSource::kUpgrade) {
    DSM_ASSERT(l2_ref);
    me.l2.set_state(l2_ref, LineState::kModified);
    if (l1_ref) {
      me.l1.set_state(l1_ref, LineState::kModified);
      me.l1.touch(l1_ref);
    } else {
      const auto v1 = me.l1.fill(line, LineState::kModified);
      if (v1 && v1->state == LineState::kModified) {
        const mem::Cache::LineRef wv = me.l2.lookup(v1->line_addr);
        DSM_ASSERT(wv);
        me.l2.set_state(wv, LineState::kModified);
      }
    }
  } else {
    lat += fill_hierarchy(requestor, line, grant, now + lat, l2_cursor);
  }
  return lat;
}

Cycle CoherenceFabric::fill_hierarchy(NodeId requestor, Addr line, LineState st,
                                      Cycle now,
                                      const mem::Cache::FillCursor& l2_cursor) {
  Node& me = nodes_[requestor];
  Cycle lat = 0;
  // The L2 allocation reuses the miss cursor from access()'s fused walk
  // (fill_at asserts its freshness), so the whole refill path pays ONE
  // associative search of the L2 set — the directory path in between
  // never mutates the requestor's caches. The L1 fill still walks its
  // (direct-mapped: walk-free) set.
  const auto v2 = me.l2.fill_at(l2_cursor, line, st);
  (v2 ? obs_.fill_with_victim : obs_.fill_no_victim).inc();
  if (v2) lat += handle_l2_eviction(requestor, *v2, now);
  const auto v1 = me.l1.fill(line, st);
  if (v1 && v1->state == LineState::kModified) {
    const mem::Cache::LineRef wv = me.l2.lookup(v1->line_addr);
    DSM_ASSERT_MSG(wv, "L1/L2 inclusion broken");
    me.l2.set_state(wv, LineState::kModified);
  }
  return lat;
}

Cycle CoherenceFabric::handle_l2_eviction(NodeId evictor, const mem::Victim& v,
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
    if (trace_ != nullptr) {
      obs::TraceEvent ev;
      ev.ts = now;
      ev.addr = v.line_addr;
      ev.kind = obs::TraceEvent::kWriteback;
      ev.node = static_cast<std::uint8_t>(evictor);
      ev.aux = vhome;
      trace_->record(ev);
    }
    const Cycle arrive =
        now + network_.message_latency(evictor, vhome, data_bytes(), now,
                                       TrafficClass::kData);
    h.ctrl.request(v.line_addr, arrive, data_bytes(), evictor);
    if (!pol_->has_owned) {
      // MSI/MESI: a dirty line is the only copy, so it returns to
      // kUncached and its entry is erased in place — no entry() probe
      // first: this path never reads the state it is about to drop.
      h.dir.erase(v.line_addr);
      return 0;
    }
    // MOESI: an evicted O line may leave S copies behind. The writeback
    // just refreshed home memory, so the survivors' entry is a plain
    // kShared; the line is erased only when the evictor held the sole
    // copy (M, or O with no other sharer).
    DirEntry& e = h.dir.entry(v.line_addr);
    e.remove_sharer(evictor);
    if (e.sharer_count() == 0) {
      h.dir.erase(v.line_addr);
    } else {
      e.state = DirEntry::State::kShared;
      e.owner = kNoNode;
    }
    return 0;
  }

  // Clean eviction: silent on the wire; directory stays precise. When the
  // last copy leaves, the entry returns to kUncached and is erased in
  // place (erase() invalidates `e` — it is the last use).
  obs_.evict_clean.inc();
  DirEntry& e = h.dir.entry(v.line_addr);
  e.remove_sharer(evictor);
  if (e.state == DirEntry::State::kExclusive && e.owner == evictor) {
    h.dir.erase(v.line_addr);
  } else if (e.sharer_count() == 0) {
    h.dir.erase(v.line_addr);
  }
  return 0;
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
