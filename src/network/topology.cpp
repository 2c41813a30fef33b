#include "network/topology.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/bitops.hpp"

namespace dsm::net {

TopologyModel::TopologyModel(Topology kind, unsigned nodes)
    : kind_(kind), nodes_(nodes), mesh_side_(0) {
  DSM_ASSERT(nodes > 0);
  DSM_ASSERT_MSG(nodes <= kMaxNodes, "more nodes than the full-map limit");
  switch (kind_) {
    case Topology::kHypercube:
      DSM_ASSERT_MSG(is_pow2(nodes), "hypercube needs power-of-two nodes");
      break;
    case Topology::kMesh2D:
    case Topology::kTorus2D: {
      const unsigned s =
          static_cast<unsigned>(std::lround(std::sqrt(double(nodes_))));
      DSM_ASSERT_MSG(s * s == nodes, "mesh/torus needs a square node count");
      mesh_side_ = s;
      break;
    }
    case Topology::kRing:
      break;
  }
  // Link ids are keyed densely as from * nodes + to; only adjacent pairs are
  // ever produced by route(), so the id space is sparse but bounded.
  links_ = static_cast<std::size_t>(nodes_) * nodes_;

  const std::size_t pairs = static_cast<std::size_t>(nodes_) * nodes_;
  route_offsets_.resize(pairs + 1, 0);
  // First pass: per-pair hop counts as offsets; second pass: fill.
  std::uint32_t total = 0;
  for (NodeId s = 0; s < nodes_; ++s)
    for (NodeId d = 0; d < nodes_; ++d) {
      route_offsets_[static_cast<std::size_t>(s) * nodes_ + d] = total;
      total += hops(s, d);
    }
  route_offsets_[pairs] = total;
  route_arena_.resize(total);
  for (NodeId s = 0; s < nodes_; ++s)
    for (NodeId d = 0; d < nodes_; ++d) {
      const auto path = compute_route(s, d);
      std::uint32_t at =
          route_offsets_[static_cast<std::size_t>(s) * nodes_ + d];
      for (const LinkId l : path) route_arena_[at++] = l;
      DSM_ASSERT(at ==
                 route_offsets_[static_cast<std::size_t>(s) * nodes_ + d + 1]);
    }
}

LinkId TopologyModel::link_id(NodeId from, NodeId to) const {
  DSM_ASSERT(from < nodes_ && to < nodes_);
  return from * nodes_ + to;
}

unsigned TopologyModel::hops(NodeId src, NodeId dst) const {
  DSM_ASSERT(src < nodes_ && dst < nodes_);
  if (src == dst) return 0;
  switch (kind_) {
    case Topology::kHypercube:
      return hamming(src, dst);
    case Topology::kMesh2D: {
      const unsigned s = mesh_side();
      const int dx = std::abs(int(src % s) - int(dst % s));
      const int dy = std::abs(int(src / s) - int(dst / s));
      return static_cast<unsigned>(dx + dy);
    }
    case Topology::kTorus2D: {
      const unsigned s = mesh_side();
      const unsigned ax = src % s, bx = dst % s;
      const unsigned ay = src / s, by = dst / s;
      const unsigned dx = std::min((ax - bx + s) % s, (bx - ax + s) % s);
      const unsigned dy = std::min((ay - by + s) % s, (by - ay + s) % s);
      return dx + dy;
    }
    case Topology::kRing: {
      const unsigned fwd = (dst - src + nodes_) % nodes_;
      return std::min(fwd, nodes_ - fwd);
    }
  }
  return 0;
}

unsigned TopologyModel::diameter() const {
  switch (kind_) {
    case Topology::kHypercube:
      return nodes_ == 1 ? 0 : log2_exact(nodes_);
    case Topology::kMesh2D:
      return 2 * (mesh_side() - 1);
    case Topology::kTorus2D:
      return 2 * (mesh_side() / 2);
    case Topology::kRing:
      return nodes_ / 2;
  }
  return 0;
}

double TopologyModel::mean_hops() const {
  if (nodes_ == 1) return 0.0;
  std::uint64_t total = 0;
  for (NodeId i = 0; i < nodes_; ++i)
    for (NodeId j = 0; j < nodes_; ++j)
      if (i != j) total += hops(i, j);
  return static_cast<double>(total) /
         (static_cast<double>(nodes_) * (nodes_ - 1));
}

std::span<const LinkId> TopologyModel::route(NodeId src, NodeId dst) const {
  DSM_ASSERT(src < nodes_ && dst < nodes_);
  const std::size_t pair = static_cast<std::size_t>(src) * nodes_ + dst;
  const std::uint32_t begin = route_offsets_[pair];
  const std::uint32_t end = route_offsets_[pair + 1];
  return {route_arena_.data() + begin, end - begin};
}

std::vector<LinkId> TopologyModel::compute_route(NodeId src,
                                                 NodeId dst) const {
  DSM_ASSERT(src < nodes_ && dst < nodes_);
  std::vector<LinkId> path;
  if (src == dst) return path;
  NodeId cur = src;
  auto step_to = [&](NodeId next) {
    path.push_back(link_id(cur, next));
    cur = next;
  };
  switch (kind_) {
    case Topology::kHypercube: {
      // e-cube: resolve differing dimensions lowest-first (deadlock-free).
      std::uint32_t diff = cur ^ dst;
      while (diff != 0) {
        const std::uint32_t bit = diff & (~diff + 1);  // lowest set bit
        step_to(cur ^ bit);
        diff = cur ^ dst;
      }
      break;
    }
    case Topology::kMesh2D: {
      const unsigned s = mesh_side();
      // X first.
      while (cur % s != dst % s)
        step_to(cur % s < dst % s ? cur + 1 : cur - 1);
      while (cur / s != dst / s)
        step_to(cur / s < dst / s ? cur + s : cur - s);
      break;
    }
    case Topology::kTorus2D: {
      const unsigned s = mesh_side();
      auto wrap_step = [&](unsigned c, unsigned d) -> unsigned {
        // Shorter direction along one dimension of size s.
        const unsigned fwd = (d - c + s) % s;
        const unsigned bwd = (c - d + s) % s;
        return fwd <= bwd ? (c + 1) % s : (c + s - 1) % s;
      };
      while (cur % s != dst % s) {
        const unsigned nx = wrap_step(cur % s, dst % s);
        step_to((cur / s) * s + nx);
      }
      while (cur / s != dst / s) {
        const unsigned ny = wrap_step(cur / s, dst / s);
        step_to(ny * s + cur % s);
      }
      break;
    }
    case Topology::kRing: {
      const unsigned fwd = (dst - cur + nodes_) % nodes_;
      const bool forward = fwd <= nodes_ - fwd;
      while (cur != dst)
        step_to(forward ? (cur + 1) % nodes_ : (cur + nodes_ - 1) % nodes_);
      break;
    }
  }
  DSM_ASSERT(cur == dst);
  DSM_ASSERT(path.size() == hops(src, dst));
  return path;
}

std::uint32_t TopologyModel::ddv_distance(NodeId i, NodeId j) const {
  // Paper: D_ij is "a measure of the distance from node i to node j
  // (1 if i = j)". We use hop count, floored at 1 for the local node.
  if (i == j) return 1;
  return hops(i, j);
}

std::vector<std::uint32_t> TopologyModel::ddv_distance_matrix() const {
  std::vector<std::uint32_t> d(static_cast<std::size_t>(nodes_) * nodes_);
  for (NodeId i = 0; i < nodes_; ++i)
    for (NodeId j = 0; j < nodes_; ++j)
      d[static_cast<std::size_t>(i) * nodes_ + j] = ddv_distance(i, j);
  return d;
}

}  // namespace dsm::net
