#include "phase/ddv.hpp"

#include <limits>

#include "common/assert.hpp"

namespace dsm::phase {

DdvFabric::DdvFabric(unsigned nodes, std::vector<std::uint32_t> distance_matrix)
    : nodes_(nodes),
      dist_(std::move(distance_matrix)),
      cumulative_(std::size_t{nodes} * nodes, 0),
      own_snapshot_(cumulative_.size(), 0),
      total_snapshot_(cumulative_.size(), 0) {
  DSM_ASSERT(nodes_ > 0);
  DSM_ASSERT(dist_.size() == std::size_t{nodes_} * nodes_);
  for (NodeId i = 0; i < nodes_; ++i)
    DSM_ASSERT_MSG(dist_[idx(i, i)] == 1, "paper requires D[i][i] == 1");
}

void DdvFabric::record_access(NodeId p, NodeId home) {
  DSM_ASSERT(p < nodes_ && home < nodes_);
  // Equivalent to incrementing F^p[k][home] for every k.
  ++cumulative_[idx(p, home)];
}

std::uint32_t DdvFabric::distance(NodeId i, NodeId j) const {
  DSM_ASSERT(i < nodes_ && j < nodes_);
  return dist_[idx(i, j)];
}

DdvFabric::GatherResult DdvFabric::gather(NodeId i) {
  DSM_ASSERT(i < nodes_);
  GatherResult out;
  out.counts.resize(2 * std::size_t{nodes_});

  double dds = 0.0;
  for (NodeId j = 0; j < nodes_; ++j) {
    std::uint64_t total = 0;  // sum_p A^p[j]
    for (NodeId p = 0; p < nodes_; ++p) total += cumulative_[idx(p, j)];
    const std::uint64_t own = cumulative_[idx(i, j)];
    const std::uint64_t f = own - own_snapshot_[idx(i, j)];
    const std::uint64_t c = total - total_snapshot_[idx(i, j)];
    // C[j] includes F[i][j], so one check covers both counters.
    DSM_ASSERT_MSG(c <= std::numeric_limits<std::uint32_t>::max(),
                   "DDV count overflows its 32-bit counter");
    own_snapshot_[idx(i, j)] = own;  // zero the on-behalf-of-i counts
    total_snapshot_[idx(i, j)] = total;
    out.counts[j] = static_cast<std::uint32_t>(f);
    out.counts[nodes_ + j] = static_cast<std::uint32_t>(c);
    dds += static_cast<double>(f) * static_cast<double>(dist_[idx(i, j)]) *
           static_cast<double>(c);
  }
  out.dds = dds;
  return out;
}

std::uint64_t DdvFabric::gather_payload_bytes(unsigned counter_bytes,
                                              unsigned request_bytes) const {
  if (nodes_ <= 1) return 0;
  const std::uint64_t peers = nodes_ - 1;
  return peers * (request_bytes +
                  static_cast<std::uint64_t>(nodes_) * counter_bytes);
}

void DdvFabric::reset() {
  std::fill(cumulative_.begin(), cumulative_.end(), 0);
  std::fill(own_snapshot_.begin(), own_snapshot_.end(), 0);
  std::fill(total_snapshot_.begin(), total_snapshot_.end(), 0);
}

}  // namespace dsm::phase
