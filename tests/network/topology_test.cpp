#include "network/topology.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace dsm::net {
namespace {

TEST(TopologyTest, HypercubeHopsAreHamming) {
  TopologyModel t(Topology::kHypercube, 32);
  EXPECT_EQ(t.hops(0, 0), 0u);
  EXPECT_EQ(t.hops(0, 1), 1u);
  EXPECT_EQ(t.hops(0, 31), 5u);
  EXPECT_EQ(t.hops(0b10101, 0b01010), 5u);
  EXPECT_EQ(t.diameter(), 5u);
}

TEST(TopologyTest, HypercubeRouteIsEcube) {
  TopologyModel t(Topology::kHypercube, 8);
  // 0 -> 5 (0b101): lowest dimension first: 0 -> 1 -> 5.
  const auto path = t.route(0, 5);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], 0u * 8 + 1);  // link 0 -> 1
  EXPECT_EQ(path[1], 1u * 8 + 5);  // link 1 -> 5
}

TEST(TopologyTest, Mesh2DHopsManhattan) {
  TopologyModel t(Topology::kMesh2D, 16);  // 4x4
  EXPECT_EQ(t.hops(0, 15), 6u);  // (0,0) -> (3,3)
  EXPECT_EQ(t.hops(5, 6), 1u);
  EXPECT_EQ(t.diameter(), 6u);
}

TEST(TopologyTest, Torus2DWrapsAround) {
  TopologyModel t(Topology::kTorus2D, 16);  // 4x4
  EXPECT_EQ(t.hops(0, 3), 1u);   // wrap in x
  EXPECT_EQ(t.hops(0, 12), 1u);  // wrap in y
  EXPECT_EQ(t.hops(0, 15), 2u);
  EXPECT_EQ(t.diameter(), 4u);
}

TEST(TopologyTest, RingShorterDirection) {
  TopologyModel t(Topology::kRing, 10);
  EXPECT_EQ(t.hops(0, 1), 1u);
  EXPECT_EQ(t.hops(0, 9), 1u);
  EXPECT_EQ(t.hops(0, 5), 5u);
  EXPECT_EQ(t.diameter(), 5u);
}

TEST(TopologyTest, DdvDistanceDiagonalIsOne) {
  // The paper defines D[i][i] == 1 ("1 if i = j").
  for (const auto kind : {Topology::kHypercube, Topology::kRing}) {
    TopologyModel t(kind, 8);
    for (NodeId i = 0; i < 8; ++i) EXPECT_EQ(t.ddv_distance(i, i), 1u);
  }
}

TEST(TopologyTest, DdvDistanceMatrixShapeAndSymmetry) {
  TopologyModel t(Topology::kHypercube, 16);
  const auto d = t.ddv_distance_matrix();
  ASSERT_EQ(d.size(), 16u * 16u);
  for (NodeId i = 0; i < 16; ++i)
    for (NodeId j = 0; j < 16; ++j)
      EXPECT_EQ(d[i * 16 + j], d[j * 16 + i]);
}

TEST(TopologyDeathTest, HypercubeRequiresPow2) {
  EXPECT_DEATH(TopologyModel(Topology::kHypercube, 6), "power-of-two");
}

TEST(TopologyDeathTest, MeshRequiresSquare) {
  EXPECT_DEATH(TopologyModel(Topology::kMesh2D, 8), "square");
}

TEST(TopologyDeathTest, MoreNodesThanTheFullMapLimitAbort) {
  // Every model builds its route table; a machine past the full-map
  // directory's 64 nodes cannot exist, so neither can its topology.
  EXPECT_DEATH(TopologyModel(Topology::kRing, kMaxNodes + 1), "full-map");
}

// ---- property sweep: route() is consistent with hops() on every pair ----

using TopoParam = std::tuple<Topology, unsigned>;

class TopologyPropertyTest : public ::testing::TestWithParam<TopoParam> {};

TEST_P(TopologyPropertyTest, RouteLengthEqualsHopsEverywhere) {
  const auto [kind, nodes] = GetParam();
  TopologyModel t(kind, nodes);
  for (NodeId s = 0; s < nodes; ++s) {
    for (NodeId d = 0; d < nodes; ++d) {
      EXPECT_EQ(t.route(s, d).size(), t.hops(s, d))
          << topology_name(kind) << " " << s << "->" << d;
    }
  }
}

TEST_P(TopologyPropertyTest, RouteTableMatchesOnTheFlyWalk) {
  // The constructor tabulates compute_route(); the table view handed out
  // by route() must reproduce the reference walk link-for-link.
  const auto [kind, nodes] = GetParam();
  TopologyModel t(kind, nodes);
  for (NodeId s = 0; s < nodes; ++s) {
    for (NodeId d = 0; d < nodes; ++d) {
      const auto table = t.route(s, d);
      const auto walk = t.compute_route(s, d);
      ASSERT_EQ(table.size(), walk.size())
          << topology_name(kind) << " " << s << "->" << d;
      for (std::size_t i = 0; i < walk.size(); ++i)
        EXPECT_EQ(table[i], walk[i])
            << topology_name(kind) << " " << s << "->" << d << " hop " << i;
    }
  }
}

TEST_P(TopologyPropertyTest, RouteIsAdjacentChainFromSrcToDst) {
  // Every route must be a chain of valid directed links: each link leaves
  // the node the previous one entered, starting at src and ending at dst.
  const auto [kind, nodes] = GetParam();
  TopologyModel t(kind, nodes);
  for (NodeId s = 0; s < nodes; ++s) {
    for (NodeId d = 0; d < nodes; ++d) {
      NodeId cur = s;
      for (const LinkId link : t.route(s, d)) {
        const NodeId from = link / nodes;
        const NodeId to = link % nodes;
        EXPECT_EQ(from, cur);
        EXPECT_EQ(t.hops(from, to), 1u);  // links join adjacent routers
        cur = to;
      }
      EXPECT_EQ(cur, d);
    }
  }
}

TEST_P(TopologyPropertyTest, HopsSymmetricAndTriangleInequality) {
  const auto [kind, nodes] = GetParam();
  TopologyModel t(kind, nodes);
  for (NodeId a = 0; a < nodes; ++a) {
    for (NodeId b = 0; b < nodes; ++b) {
      EXPECT_EQ(t.hops(a, b), t.hops(b, a));
      for (NodeId c = 0; c < nodes; c += 3)
        EXPECT_LE(t.hops(a, b), t.hops(a, c) + t.hops(c, b));
    }
  }
}

TEST_P(TopologyPropertyTest, MeanHopsBetweenOneAndDiameter) {
  const auto [kind, nodes] = GetParam();
  TopologyModel t(kind, nodes);
  if (nodes == 1) return;
  EXPECT_GE(t.mean_hops(), 1.0);
  EXPECT_LE(t.mean_hops(), static_cast<double>(t.diameter()));
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, TopologyPropertyTest,
    ::testing::Values(TopoParam{Topology::kHypercube, 2},
                      TopoParam{Topology::kHypercube, 8},
                      TopoParam{Topology::kHypercube, 32},
                      TopoParam{Topology::kHypercube, 64},
                      TopoParam{Topology::kMesh2D, 4},
                      TopoParam{Topology::kMesh2D, 16},
                      TopoParam{Topology::kMesh2D, 64},
                      TopoParam{Topology::kTorus2D, 16},
                      TopoParam{Topology::kTorus2D, 25},
                      TopoParam{Topology::kTorus2D, 64},
                      TopoParam{Topology::kRing, 2},
                      TopoParam{Topology::kRing, 7},
                      TopoParam{Topology::kRing, 16},
                      TopoParam{Topology::kRing, 64}));

}  // namespace
}  // namespace dsm::net
