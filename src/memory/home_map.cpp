#include "memory/home_map.hpp"

#include "common/assert.hpp"
#include "common/bitops.hpp"

namespace dsm::mem {

HomeMap::HomeMap(unsigned nodes, std::uint64_t page_bytes)
    : nodes_(nodes), page_bytes_(page_bytes),
      page_shift_(log2_exact(page_bytes)) {
  DSM_ASSERT(nodes_ > 0);
  DSM_ASSERT(is_pow2(page_bytes_));
}

std::pair<std::uint64_t, std::uint64_t> HomeMap::cover(Addr addr,
                                                       std::uint64_t bytes) {
  const std::uint64_t first = addr >> page_shift_;
  const std::uint64_t last = (addr + bytes - 1) >> page_shift_;
  if (last >= bound_.size()) bound_.resize(last + 1, kNoNode);
  return {first, last};
}

void HomeMap::place_range(Addr addr, std::uint64_t bytes, NodeId node) {
  DSM_ASSERT(node < nodes_);
  if (bytes == 0) return;
  const auto [first, last] = cover(addr, bytes);
  for (std::uint64_t p = first; p <= last; ++p) bound_[p] = node;
}

void HomeMap::distribute_range(Addr addr, std::uint64_t bytes,
                               NodeId first_node) {
  if (bytes == 0) return;
  const auto [first, last] = cover(addr, bytes);
  for (std::uint64_t p = first; p <= last; ++p)
    bound_[p] = static_cast<NodeId>((first_node + (p - first)) % nodes_);
}

}  // namespace dsm::mem
