// allocator.hpp — the simulated global address space. Apps allocate named
// regions and control their page placement, emulating SPLASH-2-style data
// distribution (the driver of the paper's local-vs-remote effects).
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "memory/home_map.hpp"

namespace dsm::sim {

class SimAllocator {
 public:
  /// Allocations start at `base` and grow upward, page-aligned per region
  /// so placement is never split by a neighbor.
  SimAllocator(mem::HomeMap& home_map, Addr base = 1ull << 20);

  /// Allocates `bytes` unplaced: each page lives on node page mod n.
  Addr alloc(std::uint64_t bytes);

  /// Allocates `bytes` with every page homed on `node`.
  Addr alloc_on(std::uint64_t bytes, NodeId node);

  /// Allocates `bytes` with pages distributed round-robin over all nodes,
  /// starting at `first_node`.
  Addr alloc_distributed(std::uint64_t bytes, NodeId first_node = 0);

  Addr top() const { return next_; }
  std::uint64_t allocated_bytes() const { return allocated_; }

 private:
  Addr carve(std::uint64_t bytes);

  mem::HomeMap* home_map_;
  Addr next_;
  std::uint64_t allocated_ = 0;
};

}  // namespace dsm::sim
