#include "analysis/ddv_ablation.hpp"

#include <gtest/gtest.h>

namespace dsm::analysis {
namespace {

std::vector<phase::ProcessorTrace> one_record(unsigned nodes) {
  std::vector<phase::ProcessorTrace> procs(1);
  procs[0].node = 0;
  phase::IntervalRecord r;
  r.counts.assign(2 * std::size_t{nodes}, 0);  // F[*] then C[*]
  r.counts[0] = 4;
  r.counts[1] = 2;
  r.counts[nodes + 0] = 4;
  r.counts[nodes + 1] = 7;
  r.dds = -1.0;  // must be overwritten
  procs[0].intervals.push_back(r);
  return procs;
}

TEST(DdvAblationTest, VariantFormulasExact) {
  net::TopologyModel topo(Topology::kHypercube, 2);  // D = [[1,1],[1,1]]
  const auto procs = one_record(2);

  auto dds = [&](DdsVariant v) {
    return with_dds_variant(procs, topo, v)[0].intervals[0].dds;
  };
  // D[0][0]=1, D[0][1]=1 on a 2-node hypercube.
  EXPECT_DOUBLE_EQ(dds(DdsVariant::kFull), 4 * 1 * 4 + 2 * 1 * 7);
  EXPECT_DOUBLE_EQ(dds(DdsVariant::kNoContention), 4 * 1 + 2 * 1);
  EXPECT_DOUBLE_EQ(dds(DdsVariant::kNoDistance), 4 * 4 + 2 * 7);
  EXPECT_DOUBLE_EQ(dds(DdsVariant::kFrequencyOnly), 6);
}

TEST(DdvAblationTest, UsesPerProcessorDistanceRow) {
  // On a 4-node hypercube, D[1][2] = hamming(1,2) = 2.
  net::TopologyModel topo(Topology::kHypercube, 4);
  std::vector<phase::ProcessorTrace> procs(1);
  procs[0].node = 1;
  phase::IntervalRecord r;
  r.counts = {0, 0, 3, 0,   // F
              0, 0, 5, 0};  // C
  procs[0].intervals.push_back(r);
  const auto out =
      with_dds_variant(procs, topo, DdsVariant::kFull)[0].intervals[0];
  EXPECT_DOUBLE_EQ(out.dds, 3.0 * 2.0 * 5.0);
}

TEST(DdvAblationTest, OriginalLeftUntouched) {
  net::TopologyModel topo(Topology::kHypercube, 2);
  const auto procs = one_record(2);
  (void)with_dds_variant(procs, topo, DdsVariant::kFull);
  EXPECT_DOUBLE_EQ(procs[0].intervals[0].dds, -1.0);
}

TEST(DdvAblationTest, VariantNames) {
  EXPECT_STREQ(dds_variant_name(DdsVariant::kFull), "F*D*C (paper)");
  EXPECT_STREQ(dds_variant_name(DdsVariant::kFrequencyOnly),
               "F (frequency only)");
}

}  // namespace
}  // namespace dsm::analysis
