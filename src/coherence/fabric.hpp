// fabric.hpp — the coherence fabric: per-node L1/L2 cache hierarchies, the
// distributed full-map directory, home memory controllers, and the
// interconnect, composed into a single `access()` entry point used by the
// core model for every committed load/store.
//
// The protocol the fabric runs (MSI, MESI — the paper's baseline — or
// MOESI) is a CohPolicy table (coherence/policy.hpp) selected once at
// construction from MachineConfig::protocol; the access path reads the
// table through one pointer and never branches on the Protocol enum.
//
// Timing approximation: remote caches are mutated functionally at request
// time while all latency is charged to the requestor — the standard
// approximation in deterministic, cooperatively scheduled DSM simulators.
// Clean (S/E) evictions update the directory precisely without a message;
// dirty (M, and MOESI's O) evictions pay the full writeback path.
#pragma once

#include <cstdint>
#include <vector>

#include "coherence/directory.hpp"
#include "coherence/policy.hpp"
#include "common/assert.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "memory/cache.hpp"
#include "memory/home_map.hpp"
#include "memory/mem_controller.hpp"
#include "network/network.hpp"
#include "obs/observability.hpp"

namespace dsm::coh {

/// Where the data for an access finally came from.
enum class DataSource : std::uint8_t {
  kL1,           ///< L1 hit with sufficient permission
  kL2,           ///< L2 hit with sufficient permission
  kLocalMem,     ///< home == requestor, served by local DRAM
  kRemoteMem,    ///< home != requestor, served by remote DRAM
  kRemoteCache,  ///< cache-to-cache transfer from the previous owner
  kUpgrade,      ///< data was present; only write permission was acquired
};

const char* data_source_name(DataSource s);

/// Result of one committed load/store.
struct AccessOutcome {
  Cycle latency = 0;         ///< total cycles, before MLP overlap
  DataSource source = DataSource::kL1;
  NodeId home = 0;           ///< home node of the accessed line
  bool l1_hit = false;
  bool write = false;
  unsigned invalidations = 0;  ///< remote copies invalidated
};

/// Per-node protocol statistics.
struct NodeCoherenceStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t local_mem = 0;
  std::uint64_t remote_mem = 0;
  std::uint64_t cache_to_cache = 0;
  std::uint64_t upgrades = 0;
  std::uint64_t invalidations_sent = 0;
  std::uint64_t writebacks = 0;
};

class CoherenceFabric {
 public:
  /// `obs` (optional) attaches the observability layer: protocol-
  /// transition / fill / eviction counters, the directory probe-length
  /// histogram, and the event trace. Null — the default — leaves every
  /// handle null: the hot path pays one predicted branch per site and
  /// nothing else. Counters and trace events fire only at simulated-event
  /// sites, so their values are identical across --threads/--shards.
  CoherenceFabric(const MachineConfig& cfg, net::Network& network,
                  const mem::HomeMap& home_map,
                  obs::Observability* obs = nullptr);

  /// Performs one committed load (is_write=false) or store (is_write=true)
  /// by `node` at local time `now`. An L1 hit that changes no state — a
  /// load, or a store to a line the policy lets it write as is — resolves
  /// here, inline; every other case goes to access_miss().
  AccessOutcome access(NodeId node, Addr addr, bool is_write, Cycle now) {
    DSM_ASSERT(node < nodes_.size());
    Node& me = nodes_[node];
    const Addr line = me.l2.line_of(addr);
    // A miss walks the L2 set next: put its record in flight now. A hint
    // only, with no simulated effect.
    me.l2.prefetch_set(line);
    const mem::Cache::LineRef w1 = me.l1.lookup(line);
    const mem::LineState s1 = me.l1.state_of(w1);
    if (((l1_hit_states_[is_write] >> static_cast<unsigned>(s1)) & 1) == 0)
      return access_miss(node, line, is_write, now, w1, s1);
    if (is_write) ++me.stats.stores; else ++me.stats.loads;
    me.l1.touch(w1);
    ++me.stats.l1_hits;
    AccessOutcome out;
    out.latency = cfg_.l1.latency_cycles;
    out.source = DataSource::kL1;
    out.home = home_map_->home_of(line);
    out.l1_hit = true;
    out.write = is_write;
    return out;
  }

  mem::Cache& l1(NodeId n);
  mem::Cache& l2(NodeId n);
  const mem::Cache& l1(NodeId n) const;
  const mem::Cache& l2(NodeId n) const;
  Directory& directory(NodeId home);
  mem::MemController& controller(NodeId home);
  const NodeCoherenceStats& stats(NodeId n) const;

  unsigned nodes() const { return cfg_.num_nodes; }
  unsigned line_bytes() const { return cfg_.l2.line_bytes; }

  /// The protocol tables this fabric was constructed with.
  const CohPolicy& policy() const { return *pol_; }

  /// Verifies global coherence invariants (single owner, inclusive
  /// hierarchy, every sharer set equal to its line's holder set),
  /// including the per-protocol ones: no state the policy cannot install
  /// (no E under MSI, no O outside MOESI), and every Owned line
  /// registered to exactly one owner whose directory entry is kOwned.
  /// Walks each L1 and each directory slice, so it reads only the L2 sets
  /// that hold a line. Aborts on violation. For tests.
  void check_invariants() const;

 private:
  struct Node {
    mem::Cache l1;
    mem::Cache l2;
    Directory dir;
    mem::MemController ctrl;
    NodeCoherenceStats stats;
    Node(const MachineConfig& cfg, NodeId id);
  };

  /// One directory transaction in flight. Each protocol action below adds
  /// its latency to `lat`, so at() is always the time the next message
  /// leaves.
  struct Txn {
    NodeId requestor;
    NodeId home;
    Addr line;
    bool is_write;
    Cycle now;  ///< time the request leaves the requestor's L2
    Cycle lat;  ///< latency added since `now`
    AccessOutcome& out;
    Cycle at() const { return now + lat; }
  };

  /// access() for everything but a state-preserving L1 hit: a store hit
  /// that upgrades silently (E->M), an L1 miss or a store to a read-only
  /// L1 copy. `w1`/`s1` are access()'s L1 lookup of `line`.
  AccessOutcome access_miss(NodeId node, Addr line, bool is_write, Cycle now,
                            mem::Cache::LineRef w1, mem::LineState s1);

  /// Serves a miss/upgrade at the directory, then installs the line in the
  /// requestor's L2 and L1; returns added latency. `l1_ref`/`l2_cursor`
  /// are the requestor's cached tag-walk results from access()
  /// (l2_cursor.ref valid ⇔ the L2 holds the line, i.e. an upgrade;
  /// otherwise it carries the fill slot + predicted victim, so the L2
  /// allocation needs no second set walk). They stay valid here because
  /// the directory path only mutates *other* nodes' caches before the
  /// local install.
  Cycle directory_request(NodeId requestor, Addr line, bool is_write,
                          Cycle now, AccessOutcome& out,
                          mem::Cache::LineRef l1_ref,
                          const mem::Cache::FillCursor& l2_cursor);

  // The protocol actions, one member each; every directory_request arm
  // is a sequence of them.
  /// Invalidates every node in `sharers` but the requestor. The acks
  /// return in parallel, so the slowest round trip is charged.
  void invalidate_sharers(Txn& t, std::uint64_t sharers);
  /// Reads the line from the home's memory and ships it to the requestor.
  void fetch_from_home(Txn& t);
  /// Forwards the request from the home to the line's owner `q`.
  void forward_to_owner(Txn& t, NodeId q);
  /// Ships owner `q`'s copy straight to the requestor.
  void cache_to_cache(Txn& t, NodeId q);
  /// Grants write permission for data the requestor already holds.
  void grant_upgrade(Txn& t);
  /// Installs `line` in `n`'s L1 as `st`, in place when `l1_ref` still
  /// holds it; a dirty L1 victim's bit moves into its inclusive L2 copy.
  void refill_l1(Node& n, Addr line, mem::Cache::LineRef l1_ref,
                 mem::LineState st);

  /// Handles an L2 victim: directory update + writeback if dirty.
  void handle_l2_eviction(NodeId evictor, const mem::Victim& v, Cycle now);

  /// Records `ev` when tracing is on.
  void trace(const obs::TraceEvent& ev) {
    if (trace_ != nullptr) trace_->record(ev);
  }

  unsigned control_bytes() const { return cfg_.network.control_bytes; }
  unsigned data_bytes() const { return cfg_.l2.line_bytes; }

  /// Observability handles, all null when the layer is off. Grouped so
  /// the instrumented sites read as plain field accesses.
  struct ObsHooks {
    // Coherence transitions, indexed [DirEntry::State][is_write].
    obs::CounterHandle trans[4][2];
    // Cache victim/refill classes.
    obs::CounterHandle fill_with_victim, fill_no_victim;
    obs::CounterHandle evict_writeback, evict_clean;
  };

  const MachineConfig& cfg_;
  /// Protocol tables, selected once in the constructor — the only
  /// protocol dispatch the fabric ever performs.
  const CohPolicy* pol_;
  /// L1 states access() resolves inline, one bit per LineState, indexed
  /// by is_write: a load hits any valid state, a store only a writable
  /// one its store_hit entry leaves unchanged.
  std::uint8_t l1_hit_states_[2] = {};
  net::Network& network_;
  const mem::HomeMap* home_map_;
  ObsHooks obs_;
  obs::TraceBuffer* trace_ = nullptr;  ///< null when tracing is off
  /// Node state by value: the per-access path indexes straight into the
  /// vector with no per-node pointer chase (nodes are emplaced once at
  /// construction and never move).
  std::vector<Node> nodes_;
};

}  // namespace dsm::coh
