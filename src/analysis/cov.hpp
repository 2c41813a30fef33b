// cov.hpp — the paper's evaluation metric (§II): for each phase, the CoV
// of the per-interval CPI values in it; the *identifier CoV* is the
// average of the per-phase CoVs weighted by how many intervals belong to
// each phase. Perfectly homogeneous phases give 0.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "phase/interval_record.hpp"

namespace dsm::analysis {

/// Per-phase statistics underlying the identifier CoV.
struct PhaseStat {
  PhaseId phase = kNoPhase;
  std::size_t intervals = 0;
  double mean_cpi = 0.0;
  double cov_cpi = 0.0;
};

/// Per-phase breakdown for a classified trace, in ascending phase id.
/// Ids index a vector, so they must be >= 0 and are expected dense, as
/// a footprint table issues them.
std::vector<PhaseStat> per_phase_stats(
    const std::vector<phase::IntervalRecord>& trace,
    std::span<const PhaseId> assignment);

/// Identifier CoV of CPI: interval-weighted mean of per-phase CoVs,
/// summed in ascending phase id (same id requirement as above).
double identifier_cov(const std::vector<phase::IntervalRecord>& trace,
                      std::span<const PhaseId> assignment);

}  // namespace dsm::analysis
