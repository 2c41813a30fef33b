// ddv_test.cpp — verifies the DdvFabric implements the paper's §III-B
// semantics exactly, including the equivalence of the 3n^2 cumulative-
// counter implementation with the paper's "increment all F_kj"
// formulation, the per-processor interval alignment of the on-behalf
// counts, and the 32-bit bound on every gathered count.
#include "phase/ddv.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

namespace dsm::phase {
namespace {

std::vector<std::uint32_t> unit_distance(unsigned n) {
  // D[i][j] = 1 everywhere (legal: D[i][i] must be 1).
  return std::vector<std::uint32_t>(std::size_t{n} * n, 1);
}

/// D[i][j] = 1 + hops between i and j on a ring of n nodes.
std::vector<std::uint32_t> ring_distance(unsigned n) {
  std::vector<std::uint32_t> d(std::size_t{n} * n);
  for (unsigned i = 0; i < n; ++i)
    for (unsigned j = 0; j < n; ++j) {
      const unsigned hops = i > j ? i - j : j - i;
      d[std::size_t{i} * n + j] = 1 + std::min(hops, n - hops);
    }
  return d;
}

std::vector<std::uint32_t> vec(std::span<const std::uint32_t> s) {
  return {s.begin(), s.end()};
}

TEST(DdvTest, FrequencyMatchesPaperDefinition) {
  // "F^p[k][j] counts loads/stores by p to home j since k's last gather."
  // Before any gather every k's window holds every access, so each
  // gatherer sees all of them in C and its own in F.
  DdvFabric ddv(3, unit_distance(3));
  ddv.record_access(0, 2);
  ddv.record_access(0, 2);
  ddv.record_access(1, 0);
  const std::vector<std::vector<std::uint32_t>> own{
      {0, 0, 2}, {1, 0, 0}, {0, 0, 0}};
  for (NodeId k = 0; k < 3; ++k) {
    const auto g = ddv.gather(k);
    EXPECT_EQ(vec(g.f()), own[k]) << "k=" << k;
    EXPECT_EQ(vec(g.c()), (std::vector<std::uint32_t>{1, 0, 2})) << "k=" << k;
  }
}

TEST(DdvTest, GatherResetsOnlyTheGatherersRows) {
  DdvFabric ddv(3, unit_distance(3));
  ddv.record_access(0, 1);
  ddv.record_access(2, 1);
  EXPECT_EQ(ddv.gather(0).c()[1], 2u);
  // The gather zeroed F^p[0][*] for all p: 0's next window is empty.
  const auto again = ddv.gather(0);
  EXPECT_EQ(again.counts, std::vector<std::uint32_t>(6, 0));
  // Processor 1's and 2's windows are untouched.
  EXPECT_EQ(ddv.gather(1).c()[1], 2u);
  const auto g2 = ddv.gather(2);
  EXPECT_EQ(g2.f()[1], 1u);
  EXPECT_EQ(g2.c()[1], 2u);
}

TEST(DdvTest, IntervalsAlignPerGatherer) {
  // Accesses recorded between two processors' different interval
  // boundaries must appear in exactly the right windows.
  DdvFabric ddv(2, unit_distance(2));
  ddv.record_access(0, 0);  // before everyone's boundary
  ddv.gather(1);            // processor 1 starts a new interval
  ddv.record_access(0, 0);  // after 1's boundary, before 0's
  const auto g0 = ddv.gather(0);
  EXPECT_EQ(g0.f()[0], 2u);  // 0 never gathered: sees both accesses
  const auto g1 = ddv.gather(1);
  EXPECT_EQ(g1.c()[0], 1u);  // 1 sees only the access after its boundary
}

TEST(DdvTest, ContentionSumsAllProcessors) {
  DdvFabric ddv(3, unit_distance(3));
  ddv.record_access(0, 1);
  ddv.record_access(1, 1);
  ddv.record_access(2, 1);
  ddv.record_access(2, 0);
  const auto g = ddv.gather(0);
  EXPECT_EQ(g.c()[1], 3u);  // everyone's accesses to home 1
  EXPECT_EQ(g.c()[0], 1u);
  EXPECT_EQ(g.c()[2], 0u);
}

TEST(DdvTest, DdsFormulaExact) {
  // 2 nodes, D = [[1, 3], [3, 1]].
  DdvFabric ddv(2, {1, 3, 3, 1});
  // Processor 0: 4 accesses home 0, 2 accesses home 1.
  for (int i = 0; i < 4; ++i) ddv.record_access(0, 0);
  for (int i = 0; i < 2; ++i) ddv.record_access(0, 1);
  // Processor 1: 5 accesses home 1.
  for (int i = 0; i < 5; ++i) ddv.record_access(1, 1);
  const auto g = ddv.gather(0);
  // C = {4, 7}; DDS_0 = F00*D00*C0 + F01*D01*C1 = 4*1*4 + 2*3*7 = 58.
  EXPECT_EQ(g.c()[0], 4u);
  EXPECT_EQ(g.c()[1], 7u);
  EXPECT_DOUBLE_EQ(g.dds, 58.0);
}

class DdvEquivalenceTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DdvEquivalenceTest, EquivalenceWithNaiveMatrixImplementation) {
  // Replay a random access/gather sequence against a literal n*n*n
  // implementation of the paper's text and compare everything.
  const unsigned n = GetParam();
  const auto dist = ring_distance(n);
  DdvFabric ddv(n, dist);

  std::vector<std::uint64_t> naive(std::size_t{n} * n * n, 0);  // [p][k][j]
  auto idx = [n](unsigned p, unsigned k, unsigned j) {
    return (std::size_t{p} * n + k) * n + j;
  };

  std::uint64_t seed = 42;
  auto rnd = [&seed]() {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return seed >> 33;
  };

  for (int step = 0; step < 4000; ++step) {
    if (rnd() % 10 != 0) {
      const auto p = static_cast<NodeId>(rnd() % n);
      const auto j = static_cast<NodeId>(rnd() % n);
      ddv.record_access(p, j);
      // Paper: "increments all F_kj" at processor p.
      for (unsigned k = 0; k < n; ++k) ++naive[idx(p, k, j)];
    } else {
      const auto i = static_cast<NodeId>(rnd() % n);
      const auto g = ddv.gather(i);
      // Naive gather: C_j = sum_p F^p[i][j]; own = F^i[i][*]; reset row i.
      std::vector<std::uint32_t> want_f(n), want_c(n);
      double dds = 0.0;
      for (unsigned j = 0; j < n; ++j) {
        std::uint64_t c = 0;
        for (unsigned p = 0; p < n; ++p) c += naive[idx(p, i, j)];
        want_f[j] = static_cast<std::uint32_t>(naive[idx(i, i, j)]);
        want_c[j] = static_cast<std::uint32_t>(c);
        dds += static_cast<double>(naive[idx(i, i, j)]) *
               dist[std::size_t{i} * n + j] * static_cast<double>(c);
      }
      ASSERT_EQ(vec(g.f()), want_f) << "step " << step;
      ASSERT_EQ(vec(g.c()), want_c) << "step " << step;
      ASSERT_DOUBLE_EQ(g.dds, dds) << "step " << step;
      for (unsigned p = 0; p < n; ++p)
        for (unsigned j = 0; j < n; ++j) naive[idx(p, i, j)] = 0;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Nodes, DdvEquivalenceTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 32u, 64u));

TEST(DdvTest, GatherPayloadBytes) {
  DdvFabric ddv(32, unit_distance(32));
  // 31 peers x (8-byte request + 32 4-byte counters) = 31 * 136 = 4216.
  EXPECT_EQ(ddv.gather_payload_bytes(), 4216u);
  DdvFabric single(1, unit_distance(1));
  EXPECT_EQ(single.gather_payload_bytes(), 0u);
}

TEST(DdvTest, ResetZeroesState) {
  DdvFabric ddv(2, unit_distance(2));
  ddv.record_access(0, 1);
  ddv.reset();
  const auto g = ddv.gather(0);
  EXPECT_EQ(g.c()[1], 0u);
  EXPECT_DOUBLE_EQ(g.dds, 0.0);
}

TEST(DdvDeathTest, RejectsNonUnitDiagonal) {
  std::vector<std::uint32_t> bad{2, 1, 1, 1};  // D[0][0] == 2
  EXPECT_DEATH(DdvFabric(2, bad), "D\\[i\\]\\[i\\]");
}

TEST(DdvDeathTest, GatherAbortsWhenACountOutgrows32Bits) {
  DdvFabric ddv(2, unit_distance(2));
  // 2^32 - 1 accesses still fit the paper's 4-byte counters.
  ddv.observe_row(0)[0] += 0xffffffffull;
  const auto g = ddv.gather(0);
  EXPECT_EQ(g.f()[0], 0xffffffffu);
  EXPECT_EQ(g.c()[0], 0xffffffffu);
  // One more in processor 1's window (2^32 since 1 last gathered) must
  // abort the gather rather than wrap the count.
  ddv.observe_row(1)[0] += 1;
  EXPECT_DEATH(ddv.gather(1), "32-bit counter");
}

}  // namespace
}  // namespace dsm::phase
