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
                  mem::HomeMap& home_map, obs::Observability* obs = nullptr);

  /// Performs one committed load (is_write=false) or store (is_write=true)
  /// by `node` at local time `now`.
  AccessOutcome access(NodeId node, Addr addr, bool is_write, Cycle now);

  mem::Cache& l1(NodeId n);
  mem::Cache& l2(NodeId n);
  const mem::Cache& l1(NodeId n) const;
  const mem::Cache& l2(NodeId n) const;
  Directory& directory(NodeId home);
  mem::MemController& controller(NodeId home);
  const NodeCoherenceStats& stats(NodeId n) const;
  mem::HomeMap& home_map() { return *home_map_; }

  unsigned nodes() const { return cfg_.num_nodes; }
  unsigned line_bytes() const { return cfg_.l2.line_bytes; }

  /// The protocol tables this fabric was constructed with.
  const CohPolicy& policy() const { return *pol_; }

  /// Verifies global coherence invariants (single owner, inclusive
  /// hierarchy, every sharer set equal to its line's holder set),
  /// including the per-protocol ones: no state the policy cannot install
  /// (no E under MSI, no O outside MOESI), and every Owned line
  /// registered to exactly one owner whose directory entry is kOwned.
  /// One walk per L2. Aborts on violation. For tests.
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

  /// Serves a miss/upgrade at the directory; returns added latency.
  /// `l1_ref`/`l2_cursor` are the requestor's cached tag-walk results
  /// from access() (l2_cursor.ref valid ⇔ the L2 holds the line, i.e.
  /// an upgrade; otherwise it carries the fill slot + predicted victim);
  /// they stay valid here because the directory path only mutates *other*
  /// nodes' caches before the local install.
  Cycle directory_request(NodeId requestor, Addr line, bool is_write,
                          Cycle now, AccessOutcome& out,
                          mem::Cache::LineRef l1_ref,
                          const mem::Cache::FillCursor& l2_cursor);

  /// Installs `line` into requestor's L2+L1 with state `st`, handling
  /// inclusion victims and dirty writebacks. The L2 allocation reuses the
  /// miss cursor's fused victim scan — no second set walk. Returns added
  /// latency.
  Cycle fill_hierarchy(NodeId requestor, Addr line, mem::LineState st,
                       Cycle now, const mem::Cache::FillCursor& l2_cursor);

  /// Handles an L2 victim: directory update + writeback if dirty.
  Cycle handle_l2_eviction(NodeId evictor, const mem::Victim& v, Cycle now);

  unsigned control_bytes() const { return cfg_.network.control_bytes; }
  unsigned data_bytes() const { return cfg_.l2.line_bytes; }

  /// Observability handles, all null when the layer is off. Grouped so
  /// the instrumented sites read as plain field accesses.
  struct ObsHooks {
    // Coherence transitions, one per directory-state × op switch arm.
    obs::CounterHandle trans_uncached_read, trans_uncached_write;
    obs::CounterHandle trans_shared_read, trans_shared_write;
    obs::CounterHandle trans_exclusive_read, trans_exclusive_write;
    obs::CounterHandle trans_owned_read, trans_owned_write;
    // Cache victim/refill classes.
    obs::CounterHandle fill_with_victim, fill_no_victim;
    obs::CounterHandle evict_writeback, evict_clean;
  };

  const MachineConfig& cfg_;
  /// Protocol tables, selected once in the constructor — the only
  /// protocol dispatch the fabric ever performs.
  const CohPolicy* pol_;
  net::Network& network_;
  mem::HomeMap* home_map_;
  ObsHooks obs_;
  obs::TraceBuffer* trace_ = nullptr;  ///< null when tracing is off
  /// Node state by value: the per-access path indexes straight into the
  /// vector with no per-node pointer chase (nodes are emplaced once at
  /// construction and never move).
  std::vector<Node> nodes_;
};

}  // namespace dsm::coh
