// classifier.hpp — offline replay of the footprint-table classification
// over a recorded interval trace.
//
// The paper examines two hundred threshold values per configuration; re-
// simulating per threshold would be wasteful and is unnecessary, because
// classification is a pure function of the recorded per-interval
// signatures. This replays the *exact* online algorithm (LRU footprint
// table included), so an online detector with the same thresholds produces
// the identical assignment — a property tests/classifier_test.cpp checks.
//
// A footprint entry keeps the signature of the interval that created it,
// so every BBV distance a replay computes is between two intervals of the
// trace. TraceReplay computes the N x N matrix of those distances once and
// every replay reads rows of it. The matrix holds exact distances where
// the online detector computes manhattan_capped; both agree at or below
// the threshold, the only values classification reads.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "phase/detector.hpp"
#include "phase/footprint.hpp"
#include "phase/interval_record.hpp"

namespace dsm::analysis {

struct ClassifiedTrace {
  std::vector<PhaseId> assignment;  ///< phase id per interval, in order
  /// Phase ids issued. One replay issues them densely from 0, and each
  /// labels at least the interval that created it.
  unsigned distinct_phases = 0;
  std::uint64_t footprint_replacements = 0;
};

/// Replays one processor's trace at any number of thresholds with a
/// BBV-only (use_dds=false) or BBV+DDV (use_dds=true) detector. Holds the
/// trace's distance matrix: N^2 x 4 bytes for N intervals.
class TraceReplay {
 public:
  /// `trace` is not copied and must outlive the replay.
  TraceReplay(const std::vector<phase::IntervalRecord>& trace, bool use_dds,
              unsigned footprint_capacity);

  /// Classifies the whole trace at `thresholds` with a fresh table. The
  /// result stays valid until the next call.
  const ClassifiedTrace& classify(phase::Thresholds thresholds);

 private:
  const std::vector<phase::IntervalRecord>& trace_;
  std::vector<std::uint32_t> dist_;  ///< row-major; symmetric, zero diagonal
  phase::BasicFootprintTable<phase::RowSource> table_;
  ClassifiedTrace out_;
};

/// One replay: TraceReplay(trace, use_dds, footprint_capacity)
/// .classify(thresholds).
ClassifiedTrace classify_trace(const std::vector<phase::IntervalRecord>& trace,
                               bool use_dds, unsigned footprint_capacity,
                               phase::Thresholds thresholds);

}  // namespace dsm::analysis
