// contention.hpp — epoch-based link-utilization tracking for the analytical
// wormhole contention model.
//
// A full flit-level wormhole simulation is far too slow for paper-scale
// runs; instead each directed link accumulates the flit-cycles it carried
// during the current epoch. The utilization of the *previous* epoch drives
// an M/M/1-style queueing term for messages crossing that link now. This
// captures the first-order effect the paper's DDV needs: traffic focused on
// one home node slows everyone routing toward it.
//
// Link ids are dense (from * nodes + to, see topology.hpp), so the state
// lives in one flat vector indexed by LinkId — no hashing on the per-hop
// path and no allocation after construction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "network/topology.hpp"

namespace dsm::net {

class LinkContentionTracker {
 public:
  /// `num_links`: size of the dense LinkId space (nodes^2 for the
  /// TopologyModel keying). `epoch_cycles`: epoch length in core cycles.
  /// `capacity_flits`: flits a link can carry per epoch (router cycles in
  /// the epoch).
  LinkContentionTracker(std::size_t num_links, Cycle epoch_cycles,
                        double capacity_flits);

  /// One message's walk: returns the summed queueing delay, in router
  /// cycles, of crossing `links` at time `now`, and records `flits` on
  /// each. A link's delay is alpha * u / (1 - u), where u is its
  /// utilization in the last completed epoch, capped at 0.90 so a
  /// saturated link costs a bounded (9x alpha) per-hop penalty rather
  /// than a runaway tail.
  double delay_and_record_path(std::span<const LinkId> links, Cycle now,
                               double alpha, double flits);

  Cycle epoch_cycles() const { return epoch_cycles_; }

 private:
  struct LinkState {
    std::uint64_t epoch = 0;      ///< epoch index of `current`
    double current = 0.0;         ///< flits this epoch
    double previous = 0.0;        ///< flits last epoch
  };

  /// Rolls `s` forward so that `s.epoch` is the epoch containing `now`.
  static void roll(LinkState& s, std::uint64_t epoch_now);

  Cycle epoch_cycles_;
  double capacity_flits_;
  std::vector<LinkState> links_;  ///< dense per-link state
};

}  // namespace dsm::net
