// home_map.hpp — page-granular assignment of the global address space to
// home nodes. The paper's DDV counts "loads and stores ... that accessed
// data with home in node j"; this map is where "home" is defined.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace dsm::mem {

/// Default placement policy for pages not explicitly placed.
enum class Placement : std::uint8_t {
  kRoundRobin,   ///< page i -> node i mod n (classic DSM interleaving)
  kBlockCyclic,  ///< blocks of pages cycle over the nodes
  kFirstTouch,   ///< home = first accessor (SGI-style)
};

class HomeMap {
 public:
  HomeMap(unsigned nodes, std::uint64_t page_bytes, Placement policy,
          std::uint64_t block_pages = 8);

  unsigned nodes() const { return nodes_; }
  std::uint64_t page_bytes() const { return page_bytes_; }
  Placement policy() const { return policy_; }

  /// Home of the page containing `addr`, assigning it per policy on first
  /// use. `accessor` resolves first-touch; other policies ignore it.
  NodeId home_of(Addr addr, NodeId accessor);

  /// Home if already determined (explicit or policy-computable without an
  /// accessor); kNoNode for an untouched first-touch page.
  NodeId peek_home(Addr addr) const;

  /// Explicitly places every page overlapping [addr, addr+bytes) on `node`
  /// (overrides the policy; later calls override earlier ones).
  void place_range(Addr addr, std::uint64_t bytes, NodeId node);

  /// Distributes pages of [addr, addr+bytes) round-robin starting at
  /// `first_node` — how our apps emulate SPLASH-2-style data distribution.
  void distribute_range(Addr addr, std::uint64_t bytes, NodeId first_node = 0);

 private:
  /// Called on every simulated access: shift when page_bytes is a power of
  /// two (the common case), divide otherwise.
  std::uint64_t page_of(Addr addr) const {
    return page_shift_ >= 0 ? addr >> page_shift_ : addr / page_bytes_;
  }
  NodeId policy_home(std::uint64_t page) const;
  /// Explicit or first-touch home of `page`; kNoNode when unbound.
  NodeId bound_home(std::uint64_t page) const {
    return page < bound_.size() ? bound_[page] : kNoNode;
  }
  /// Grows the page table to cover pages [0, last].
  void cover(std::uint64_t last) {
    if (last >= bound_.size()) bound_.resize(last + 1, kNoNode);
  }

  unsigned nodes_;
  std::uint64_t page_bytes_;
  int page_shift_;  ///< log2(page_bytes) when a power of two, else -1
  Placement policy_;
  std::uint64_t block_pages_;
  /// Flat page table of explicit and first-touch bindings, indexed by
  /// page (kNoNode: unbound, the policy decides). Bindings come from the
  /// simulated allocator, which carves densely upward from a low base,
  /// so the table stays as short as the highest bound page.
  std::vector<NodeId> bound_;
};

}  // namespace dsm::mem
