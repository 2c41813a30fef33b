// home_map.hpp — page-granular assignment of the global address space to
// home nodes. The paper's DDV counts "loads and stores ... that accessed
// data with home in node j"; this map is where "home" is defined: a page
// the apps placed explicitly lives where they put it, any other page i
// on node i mod n (classic DSM interleaving).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace dsm::mem {

class HomeMap {
 public:
  /// `page_bytes` must be a power of two (MachineConfig::validate()
  /// refuses any other).
  HomeMap(unsigned nodes, std::uint64_t page_bytes);

  unsigned nodes() const { return nodes_; }
  std::uint64_t page_bytes() const { return page_bytes_; }

  /// Home of the page containing `addr`: its explicit placement, else
  /// page mod n.
  NodeId home_of(Addr addr) const {
    const std::uint64_t page = addr >> page_shift_;
    if (page < bound_.size() && bound_[page] != kNoNode) return bound_[page];
    return static_cast<NodeId>(page % nodes_);
  }

  /// Explicitly places every page overlapping [addr, addr+bytes) on `node`
  /// (later calls override earlier ones).
  void place_range(Addr addr, std::uint64_t bytes, NodeId node);

  /// Distributes pages of [addr, addr+bytes) round-robin starting at
  /// `first_node` — how our apps emulate SPLASH-2-style data distribution.
  void distribute_range(Addr addr, std::uint64_t bytes, NodeId first_node = 0);

 private:
  /// Grows the page table to cover the pages of [addr, addr+bytes) and
  /// returns the first and last of them; bytes > 0.
  std::pair<std::uint64_t, std::uint64_t> cover(Addr addr,
                                                std::uint64_t bytes);

  unsigned nodes_;
  std::uint64_t page_bytes_;
  unsigned page_shift_;  ///< log2(page_bytes)
  /// Flat page table of explicit placements, indexed by page (kNoNode:
  /// page mod n decides). Placements come from the simulated allocator,
  /// which carves densely upward from a low base, so the table stays as
  /// short as the highest placed page.
  std::vector<NodeId> bound_;
};

}  // namespace dsm::mem
