#include "memory/home_map.hpp"

#include "common/assert.hpp"
#include "common/bitops.hpp"

namespace dsm::mem {

HomeMap::HomeMap(unsigned nodes, std::uint64_t page_bytes, Placement policy,
                 std::uint64_t block_pages)
    : nodes_(nodes), page_bytes_(page_bytes),
      page_shift_(is_pow2(page_bytes)
                      ? static_cast<int>(log2_exact(page_bytes))
                      : -1),
      policy_(policy), block_pages_(block_pages) {
  DSM_ASSERT(nodes_ > 0);
  DSM_ASSERT(page_bytes_ > 0);
  DSM_ASSERT(block_pages_ > 0);
}

NodeId HomeMap::policy_home(std::uint64_t page) const {
  switch (policy_) {
    case Placement::kRoundRobin:
      return static_cast<NodeId>(page % nodes_);
    case Placement::kBlockCyclic:
      return static_cast<NodeId>((page / block_pages_) % nodes_);
    case Placement::kFirstTouch:
      return kNoNode;  // resolved in home_of
  }
  return kNoNode;
}

NodeId HomeMap::home_of_unbound(std::uint64_t page, NodeId accessor) {
  const NodeId policy_node = policy_home(page);
  if (policy_node != kNoNode) return policy_node;
  // First touch: bind now.
  DSM_ASSERT(accessor < nodes_);
  cover(page);
  bound_[page] = accessor;
  return accessor;
}

NodeId HomeMap::peek_home(Addr addr) const {
  const std::uint64_t page = page_of(addr);
  const NodeId bound = bound_home(page);
  return bound != kNoNode ? bound : policy_home(page);
}

void HomeMap::place_range(Addr addr, std::uint64_t bytes, NodeId node) {
  DSM_ASSERT(node < nodes_);
  if (bytes == 0) return;
  const std::uint64_t first = page_of(addr);
  const std::uint64_t last = page_of(addr + bytes - 1);
  cover(last);
  for (std::uint64_t p = first; p <= last; ++p) bound_[p] = node;
}

void HomeMap::distribute_range(Addr addr, std::uint64_t bytes,
                               NodeId first_node) {
  if (bytes == 0) return;
  const std::uint64_t first = page_of(addr);
  const std::uint64_t last = page_of(addr + bytes - 1);
  cover(last);
  for (std::uint64_t p = first; p <= last; ++p)
    bound_[p] = static_cast<NodeId>((first_node + (p - first)) % nodes_);
}

}  // namespace dsm::mem
