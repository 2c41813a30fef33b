// topology.hpp — interconnect topologies and deterministic routing.
//
// The paper's machine uses a hypercube (Table I); the DDV's distance matrix
// D is "a matrix of pre-programmed constants" derived from the topology.
// We also provide mesh/torus/ring so ablations can vary D's structure.
//
// Routing is fully deterministic, so routes are precomputed at construction
// into one flat arena (CSR layout: per-(src,dst) offsets into a shared link
// array) and `route()` hands out non-allocating views. At the 64-node
// ceiling (kMaxNodes, the full-map directory's limit) that is at most 4096
// routes × diameter links — a few hundred kB — and it removes the
// per-message heap allocation that used to sit on the simulator's hottest
// path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace dsm::net {

/// A directed link between adjacent routers, identified densely so the
/// contention model can keep per-link counters.
using LinkId = std::uint32_t;

/// Topology geometry + deterministic minimal routing.
///
/// Routing is dimension-ordered: e-cube on the hypercube, X-then-Y on
/// mesh/torus, fixed direction (shorter way) on the ring — deadlock-free
/// orders matching classic wormhole designs.
class TopologyModel {
 public:
  /// `nodes` must be at most kMaxNodes, a power of two for the hypercube
  /// and a square for the mesh and torus (MachineConfig::validate() checks
  /// the same rules without aborting).
  TopologyModel(Topology kind, unsigned nodes);

  Topology kind() const { return kind_; }
  unsigned nodes() const { return nodes_; }
  unsigned num_links() const { return static_cast<unsigned>(links_); }

  /// Hop count of the deterministic minimal route from src to dst
  /// (0 when src == dst).
  unsigned hops(NodeId src, NodeId dst) const;

  /// Network diameter (max hops over all pairs).
  unsigned diameter() const;

  /// Average hop distance over all ordered pairs with src != dst.
  double mean_hops() const;

  /// The sequence of directed links the deterministic route traverses.
  /// Empty when src == dst. Allocation-free: a view into the route table
  /// built at construction, valid for the model's lifetime.
  std::span<const LinkId> route(NodeId src, NodeId dst) const;

  /// Reference implementation: walks the routing algorithm step by step and
  /// returns a fresh vector. This is what the constructor tabulates; it
  /// stays public so tests can check table/walk equivalence.
  std::vector<LinkId> compute_route(NodeId src, NodeId dst) const;

  /// The paper's D matrix entry: topological distance, with D[i][i] == 1
  /// ("1 if i = j"), so local accesses carry unit weight in the DDS.
  std::uint32_t ddv_distance(NodeId i, NodeId j) const;

  /// Full D matrix in row-major order (n*n entries).
  std::vector<std::uint32_t> ddv_distance_matrix() const;

 private:
  unsigned mesh_side() const { return mesh_side_; }
  LinkId link_id(NodeId from, NodeId to) const;

  Topology kind_;
  unsigned nodes_;
  unsigned mesh_side_;  ///< cached: sqrt(nodes) for mesh/torus, else 0
  std::size_t links_;
  /// CSR route table: the route src->dst occupies
  /// route_arena_[route_offsets_[src*nodes+dst] ..
  ///              route_offsets_[src*nodes+dst+1]).
  std::vector<std::uint32_t> route_offsets_;
  std::vector<LinkId> route_arena_;
};

}  // namespace dsm::net
