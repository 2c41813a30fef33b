#include "analysis/ddv_ablation.hpp"

#include "common/assert.hpp"

namespace dsm::analysis {

const char* dds_variant_name(DdsVariant v) {
  switch (v) {
    case DdsVariant::kFull: return "F*D*C (paper)";
    case DdsVariant::kNoContention: return "F*D (no contention)";
    case DdsVariant::kNoDistance: return "F*C (no distance)";
    case DdsVariant::kFrequencyOnly: return "F (frequency only)";
  }
  return "?";
}

std::vector<phase::ProcessorTrace> with_dds_variant(
    const std::vector<phase::ProcessorTrace>& procs,
    const net::TopologyModel& topo, DdsVariant variant) {
  std::vector<phase::ProcessorTrace> out = procs;
  for (auto& proc : out) {
    for (auto& rec : proc.intervals) {
      const auto fs = rec.f();
      const auto cs = rec.c();
      double dds = 0.0;
      for (NodeId j = 0; j < fs.size(); ++j) {
        const auto f = static_cast<double>(fs[j]);
        const auto c = static_cast<double>(cs[j]);
        const auto d =
            static_cast<double>(topo.ddv_distance(proc.node, j));
        switch (variant) {
          case DdsVariant::kFull: dds += f * d * c; break;
          case DdsVariant::kNoContention: dds += f * d; break;
          case DdsVariant::kNoDistance: dds += f * c; break;
          case DdsVariant::kFrequencyOnly: dds += f; break;
        }
      }
      rec.dds = dds;
    }
  }
  return out;
}

}  // namespace dsm::analysis
