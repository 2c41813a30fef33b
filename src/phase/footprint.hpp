// footprint.hpp — the footprint table of the paper's detectors (Figs. 1
// and 3): a small, LRU-managed table of previously seen BBV signatures,
// each optionally paired with a DDS value in the BBV+DDV configuration.
//
// Classification (paper §III-B): among entries whose BBV Manhattan
// distance AND DDS difference are both under their thresholds, the entry
// with the smallest Manhattan distance wins; otherwise a new entry is
// allocated (possibly replacing the LRU victim) and a fresh phase id is
// issued.
//
// One algorithm serves two distance sources. An entry is never updated
// after it is allocated, so it always holds the signature of the interval
// that created it: the online detectors keep a copy of that interval's
// BBV (BbvSource), while the offline replay, which knows every interval
// of the trace in advance, keeps the interval's index and reads distances
// from a precomputed row (RowSource).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "phase/bbv.hpp"

namespace dsm::phase {

/// Result of classifying one interval.
struct Classification {
  PhaseId phase = kNoPhase;
  bool new_phase = false;       ///< a new footprint entry was allocated
  std::uint64_t bbv_distance = 0;  ///< to the matched entry (0 for new)
  double dds_difference = 0.0;     ///< to the matched entry (0 for new)
};

/// Distance source of the online detectors: the interval's BBV. An entry
/// keeps a copy of it. Implicit, so `table.classify(bbv, ...)` reads as
/// the hardware does.
struct BbvSource {
  using Key = BbvVector;
  BbvSource(const BbvVector& v) : bbv(v) {}
  const BbvVector& key() const { return bbv; }
  /// Exact whenever the distance is <= cap (see manhattan_capped).
  std::uint64_t distance(const BbvVector& entry, std::uint64_t cap) const {
    return manhattan_capped(bbv, entry, cap);
  }
  const BbvVector& bbv;
};

/// Distance source of the offline replay: interval `index` of a trace
/// whose pairwise BBV distances were computed once. `row[j]` is the exact
/// Manhattan distance from this interval to interval j; an entry keeps
/// the index of the interval that created it.
struct RowSource {
  using Key = std::uint32_t;
  std::uint32_t index = 0;
  const std::uint32_t* row = nullptr;
  Key key() const { return index; }
  std::uint64_t distance(Key entry, std::uint64_t /*cap*/) const {
    return row[entry];
  }
};

template <class Source>
class BasicFootprintTable {
 public:
  /// `capacity` footprint vectors (paper: 32). When `use_dds` is false the
  /// DDS threshold is ignored (pure-BBV baseline of §III-A).
  BasicFootprintTable(unsigned capacity, bool use_dds);

  /// Classifies an interval signature. `dds` is ignored unless the table
  /// was built with use_dds. Thresholds: `bbv_threshold` in normalized
  /// Manhattan units; `dds_threshold` in absolute DDS units.
  Classification classify(const Source& interval, double dds,
                          std::uint64_t bbv_threshold, double dds_threshold);

  void reset();

  unsigned capacity() const { return capacity_; }
  std::size_t occupied() const { return entries_.size(); }
  /// Total distinct phase ids ever issued (monotonic).
  PhaseId phases_issued() const { return next_phase_; }
  std::uint64_t replacements() const { return replacements_; }

 private:
  struct Entry {
    typename Source::Key key{};
    double dds = 0.0;
    PhaseId phase = kNoPhase;
    std::uint64_t lru = 0;
  };

  unsigned capacity_;
  bool use_dds_;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
  PhaseId next_phase_ = 0;
  std::uint64_t replacements_ = 0;
};

extern template class BasicFootprintTable<BbvSource>;
extern template class BasicFootprintTable<RowSource>;

/// The table the online detectors hold.
using FootprintTable = BasicFootprintTable<BbvSource>;

}  // namespace dsm::phase
