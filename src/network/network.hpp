// network.hpp — the interconnect model: wormhole latency + contention +
// traffic accounting for a message-passing fabric between DSM nodes.
//
// Latency of a message of `payload_bytes` from src to dst at time `now`:
//
//   hops * (pin_to_pin + router pipeline) ... per-hop wire/switch delay
//   + (flits - 1) * flit_cycle             ... wormhole serialization
//   + sum over links of the queueing delay ... analytical contention
//                                              (contention.hpp)
//
// all converted into core cycles. Table I: 400 MHz pipelined router
// (1 flit / 2.5 ns per link), 16 ns pin-to-pin.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "network/contention.hpp"
#include "network/topology.hpp"
#include "obs/observability.hpp"

namespace dsm::net {

/// Categories of traffic, for accounting (protocol studies + the paper's
/// §III-B DDV-bandwidth-overhead claim).
enum class TrafficClass : std::uint8_t {
  kCoherence,   ///< directory protocol messages
  kData,        ///< cache-line fills / writebacks
  kSync,        ///< barrier / lock traffic
  kDdv,         ///< DDV frequency-vector exchanges (the paper's mechanism)
};

inline constexpr unsigned kNumTrafficClasses = 4;

class Network {
 public:
  /// `obs` (optional) registers one message + one byte counter per
  /// directed link ("net.linkK.msgs"/"net.linkK.bytes"); message_latency
  /// then counts every traversed link. Null — the default — keeps the
  /// walk compiled out of the hot path behind one bool.
  explicit Network(const MachineConfig& cfg,
                   obs::Observability* obs = nullptr);

  const TopologyModel& topology() const { return topo_; }

  /// Latency in core cycles for one message, including contention, and
  /// records the traffic on every traversed link. src == dst is legal and
  /// costs 0 (the paper's local accesses never enter the network).
  Cycle message_latency(NodeId src, NodeId dst, unsigned payload_bytes,
                        Cycle now, TrafficClass cls);

  /// Zero-load latency (no contention) — used by tests to check the
  /// analytical decomposition.
  Cycle zero_load_latency(NodeId src, NodeId dst,
                          unsigned payload_bytes) const;

  std::uint64_t messages_sent(TrafficClass cls) const;
  std::uint64_t bytes_sent(TrafficClass cls) const;
  std::uint64_t total_messages() const;
  std::uint64_t total_bytes() const;

 private:
  unsigned flits_for(unsigned payload_bytes) const;
  /// Zero-load latency in (fractional) core cycles of `flits` over `hops`.
  double zero_load_cycles(unsigned hops, unsigned flits) const;

  const MachineConfig& cfg_;
  TopologyModel topo_;
  double core_cycles_per_router_cycle_;
  double per_hop_cycles_;
  double capacity_flits_;
  LinkContentionTracker tracker_;
  std::uint64_t msg_count_[kNumTrafficClasses] = {};
  std::uint64_t byte_count_[kNumTrafficClasses] = {};
  /// Per-link observability lanes (indexed by LinkId); empty when off.
  /// link_obs_ gates the whole walk so the default path pays nothing.
  bool link_obs_ = false;
  std::vector<obs::CounterHandle> link_msgs_;
  std::vector<obs::CounterHandle> link_bytes_;
};

}  // namespace dsm::net
