#include "phase/traffic_model.hpp"

#include "common/assert.hpp"
#include "phase/ddv.hpp"

namespace dsm::phase {

DdvTrafficResult ddv_traffic(const DdvTrafficParams& p) {
  DSM_ASSERT(p.nodes >= 1);
  DSM_ASSERT(p.interval_instructions > 0);
  DdvTrafficResult r;
  r.intervals_per_second =
      p.frequency_hz * p.ipc / static_cast<double>(p.interval_instructions);
  // Each interval end: n-1 queries out, n-1 vector replies back. A reply
  // carries the peer's n-entry on-behalf frequency vector.
  r.bytes_per_gather = DdvFabric::gather_payload_bytes(p.nodes);
  // A node's interface carries the same volume again in its responder
  // role (it answers every peer's gather), so sustained per-node traffic
  // is twice the gather payload per interval — this is how the paper's
  // "about 160 kB/s" figure arises.
  r.node_bytes_per_second =
      2.0 * r.intervals_per_second * static_cast<double>(r.bytes_per_gather);
  r.system_bytes_per_second =
      r.node_bytes_per_second * p.nodes / 2.0;  // each byte counted once
  r.fraction_of_controller =
      r.node_bytes_per_second / (p.controller_bandwidth_gbps * 1e9);
  return r;
}

}  // namespace dsm::phase
