#include "network/contention.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dsm::net {

LinkContentionTracker::LinkContentionTracker(std::size_t num_links,
                                             Cycle epoch_cycles,
                                             double capacity_flits)
    : epoch_cycles_(epoch_cycles),
      capacity_flits_(capacity_flits),
      links_(num_links) {
  DSM_ASSERT(epoch_cycles_ > 0);
  DSM_ASSERT(capacity_flits_ > 0.0);
}

void LinkContentionTracker::roll(LinkState& s, std::uint64_t epoch_now) {
  if (s.epoch == epoch_now) return;
  if (s.epoch + 1 == epoch_now) {
    s.previous = s.current;
  } else {
    s.previous = 0.0;  // link was idle for at least one full epoch
  }
  s.current = 0.0;
  s.epoch = epoch_now;
}

double LinkContentionTracker::delay_and_record_path(
    std::span<const LinkId> links, Cycle now, double alpha, double flits) {
  const std::uint64_t epoch_now = now / epoch_cycles_;
  double total = 0.0;
  for (const LinkId link : links) {
    DSM_ASSERT(link < links_.size());
    LinkState& s = links_[link];
    roll(s, epoch_now);
    // Last epoch's utilization, capped (see the header).
    const double u = std::min(s.previous / capacity_flits_, 0.90);
    total += alpha * u / (1.0 - u);
    s.current += flits;
  }
  return total;
}

}  // namespace dsm::net
