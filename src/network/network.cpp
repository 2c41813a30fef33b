#include "network/network.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/bitops.hpp"

namespace dsm::net {

Network::Network(const MachineConfig& cfg, obs::Observability* obs)
    : cfg_(cfg),
      topo_(cfg.network.topology, cfg.num_nodes),
      core_cycles_per_router_cycle_(
          static_cast<double>(cfg.core.frequency_hz) /
          cfg.network.router_frequency_hz),
      per_hop_cycles_(cfg.network.pin_to_pin_ns * cfg.cycles_per_ns()),
      capacity_flits_(static_cast<double>(cfg.network.contention_epoch_cycles) /
                      core_cycles_per_router_cycle_),
      tracker_(topo_.num_links(), cfg.network.contention_epoch_cycles,
               capacity_flits_) {
  if (obs != nullptr && obs->stats_enabled()) {
    // One (msgs, bytes) counter pair per directed link, registered in
    // LinkId order — the route walk in message_latency indexes straight
    // into these lanes. Increments happen per simulated message, so the
    // totals are deterministic across --threads/--shards.
    link_obs_ = true;
    const std::size_t nl = topo_.num_links();
    link_msgs_.reserve(nl);
    link_bytes_.reserve(nl);
    for (std::size_t k = 0; k < nl; ++k) {
      const std::string base = "net.link" + std::to_string(k);
      link_msgs_.push_back(obs->counter(base + ".msgs"));
      link_bytes_.push_back(obs->counter(base + ".bytes"));
    }
  }
}

unsigned Network::flits_for(unsigned payload_bytes) const {
  return cfg_.network.header_flits +
         static_cast<unsigned>(
             ceil_div(payload_bytes, cfg_.network.link_bytes_per_flit));
}

double Network::zero_load_cycles(unsigned hops, unsigned flits) const {
  // Wormhole: header pays per-hop latency at every hop; the body streams
  // behind it, adding (flits-1) router cycles of serialization once.
  return hops * per_hop_cycles_ + (flits - 1) * core_cycles_per_router_cycle_;
}

Cycle Network::zero_load_latency(NodeId src, NodeId dst,
                                 unsigned payload_bytes) const {
  if (src == dst) return 0;
  return static_cast<Cycle>(std::ceil(
      zero_load_cycles(topo_.hops(src, dst), flits_for(payload_bytes))));
}

Cycle Network::message_latency(NodeId src, NodeId dst, unsigned payload_bytes,
                               Cycle now, TrafficClass cls) {
  const auto idx = static_cast<unsigned>(cls);
  DSM_ASSERT(idx < kNumTrafficClasses);
  ++msg_count_[idx];
  byte_count_[idx] += payload_bytes;
  if (src == dst) return 0;
  const unsigned flits = flits_for(payload_bytes);
  // One route fetch serves both the zero-load term (hops == link count)
  // and the per-link contention walk; the two terms are ceil'd
  // separately. The header flit pays the queueing delay at each hop; body
  // flits pipeline behind it (their serialization is charged once in the
  // zero-load term).
  const auto path = topo_.route(src, dst);
  if (link_obs_) {
    for (const LinkId link : path) {
      link_msgs_[link].inc();
      link_bytes_[link].add(payload_bytes);
    }
  }
  const double zero_load =
      zero_load_cycles(static_cast<unsigned>(path.size()), flits);
  const double queue_router_cycles = tracker_.delay_and_record_path(
      path, now, cfg_.network.contention_alpha, flits);
  return static_cast<Cycle>(std::ceil(zero_load)) +
         static_cast<Cycle>(
             std::ceil(queue_router_cycles * core_cycles_per_router_cycle_));
}

std::uint64_t Network::messages_sent(TrafficClass cls) const {
  return msg_count_[static_cast<unsigned>(cls)];
}

std::uint64_t Network::bytes_sent(TrafficClass cls) const {
  return byte_count_[static_cast<unsigned>(cls)];
}

std::uint64_t Network::total_messages() const {
  std::uint64_t t = 0;
  for (const auto c : msg_count_) t += c;
  return t;
}

std::uint64_t Network::total_bytes() const {
  std::uint64_t t = 0;
  for (const auto c : byte_count_) t += c;
  return t;
}

}  // namespace dsm::net
