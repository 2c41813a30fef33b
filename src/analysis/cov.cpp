#include "analysis/cov.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/stats.hpp"

namespace dsm::analysis {

std::vector<PhaseStat> per_phase_stats(
    const std::vector<phase::IntervalRecord>& trace,
    std::span<const PhaseId> assignment) {
  DSM_ASSERT(trace.size() == assignment.size());
  // Phase ids index the groups. A footprint table issues them densely
  // from 0, so a detector's or a replay's assignment leaves no gaps; an
  // id no interval carries would be skipped below.
  PhaseId top = -1;
  for (const PhaseId id : assignment) {
    DSM_ASSERT_MSG(id >= 0, "interval without a phase id");
    top = std::max(top, id);
  }
  std::vector<RunningStat> groups(static_cast<std::size_t>(top + 1));
  for (std::size_t i = 0; i < trace.size(); ++i)
    groups[static_cast<std::size_t>(assignment[i])].add(trace[i].cpi);

  std::vector<PhaseStat> out;
  out.reserve(groups.size());
  for (std::size_t id = 0; id < groups.size(); ++id) {
    const RunningStat& stat = groups[id];
    if (stat.count() == 0) continue;
    PhaseStat ps;
    ps.phase = static_cast<PhaseId>(id);
    ps.intervals = static_cast<std::size_t>(stat.count());
    ps.mean_cpi = stat.mean();
    ps.cov_cpi = stat.cov();
    out.push_back(ps);
  }
  return out;
}

double identifier_cov(const std::vector<phase::IntervalRecord>& trace,
                      std::span<const PhaseId> assignment) {
  if (trace.empty()) return 0.0;
  const auto stats = per_phase_stats(trace, assignment);
  double weighted = 0.0;
  std::size_t total = 0;
  for (const auto& ps : stats) {
    weighted += ps.cov_cpi * static_cast<double>(ps.intervals);
    total += ps.intervals;
  }
  return total == 0 ? 0.0 : weighted / static_cast<double>(total);
}

}  // namespace dsm::analysis
