#include "phase/footprint.hpp"

#include <cmath>
#include <limits>

#include "common/assert.hpp"

namespace dsm::phase {

template <class Source>
BasicFootprintTable<Source>::BasicFootprintTable(unsigned capacity,
                                                 bool use_dds)
    : capacity_(capacity), use_dds_(use_dds) {
  DSM_ASSERT(capacity_ > 0);
  entries_.reserve(capacity_);
}

template <class Source>
Classification BasicFootprintTable<Source>::classify(
    const Source& interval, double dds, std::uint64_t bbv_threshold,
    double dds_threshold) {
  Classification out;

  Entry* best = nullptr;
  std::uint64_t best_dist = std::numeric_limits<std::uint64_t>::max();
  for (auto& e : entries_) {
    const std::uint64_t d = interval.distance(e.key, bbv_threshold);
    if (d > bbv_threshold) continue;
    if (use_dds_ && std::abs(dds - e.dds) > dds_threshold) continue;
    if (d < best_dist) {
      best_dist = d;
      best = &e;
    }
  }

  if (best != nullptr) {
    best->lru = ++tick_;
    out.phase = best->phase;
    out.bbv_distance = best_dist;
    out.dds_difference = std::abs(dds - best->dds);
    return out;
  }

  // No match: allocate (replacing LRU when full) and issue a new phase id.
  Entry* slot;
  if (entries_.size() < capacity_) {
    slot = &entries_.emplace_back();
  } else {
    slot = &entries_.front();
    for (auto& e : entries_)
      if (e.lru < slot->lru) slot = &e;
    ++replacements_;
  }
  slot->key = interval.key();
  slot->dds = dds;
  slot->phase = next_phase_++;
  slot->lru = ++tick_;

  out.phase = slot->phase;
  out.new_phase = true;
  return out;
}

template <class Source>
void BasicFootprintTable<Source>::reset() {
  entries_.clear();
  tick_ = 0;
  next_phase_ = 0;
  replacements_ = 0;
}

template class BasicFootprintTable<BbvSource>;
template class BasicFootprintTable<RowSource>;

}  // namespace dsm::phase
