// traffic_model.hpp — analytic model of the DDV mechanism's communication
// cost, reproducing the paper's §III-B estimate: "Assuming 32 2GHz
// processors, IPC = 1, and a 'real-world' interval length of 100M
// instructions, the overall sustained bandwidth requirement of this
// mechanism is about 160kB/s ... under 0.15% of the peak bandwidth" of a
// 1.5 GB/s memory controller.
#pragma once

#include <cstdint>

namespace dsm::phase {

struct DdvTrafficParams {
  unsigned nodes = 32;
  double frequency_hz = 2e9;
  double ipc = 1.0;
  std::uint64_t interval_instructions = 100'000'000;  ///< "real-world" length
  double controller_bandwidth_gbps = 1.5;  ///< "modern memory controllers"
};

struct DdvTrafficResult {
  double intervals_per_second = 0.0;
  std::uint64_t bytes_per_gather = 0;   ///< per processor, per interval end
  double node_bytes_per_second = 0.0;   ///< traffic one processor generates
  double system_bytes_per_second = 0.0; ///< all processors combined
  double fraction_of_controller = 0.0;  ///< node traffic / controller BW
};

/// First-principles evaluation of the paper's overhead claim.
DdvTrafficResult ddv_traffic(const DdvTrafficParams& p);

}  // namespace dsm::phase
