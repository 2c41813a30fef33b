#include "analysis/classifier.hpp"

#include <limits>

#include "common/assert.hpp"

namespace dsm::analysis {

TraceReplay::TraceReplay(const std::vector<phase::IntervalRecord>& trace,
                         bool use_dds, unsigned footprint_capacity)
    : trace_(trace),
      dist_(trace.size() * trace.size(), 0),
      table_(footprint_capacity, use_dds) {
  const std::size_t n = trace.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::uint64_t d = phase::manhattan(trace[i].bbv, trace[j].bbv);
      DSM_ASSERT_MSG(d <= std::numeric_limits<std::uint32_t>::max(),
                     "BBV distance does not fit the 32-bit matrix");
      dist_[i * n + j] = dist_[j * n + i] = static_cast<std::uint32_t>(d);
    }
  }
  out_.assignment.reserve(n);
}

const ClassifiedTrace& TraceReplay::classify(phase::Thresholds thresholds) {
  const std::size_t n = trace_.size();
  table_.reset();
  out_.assignment.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const phase::RowSource interval{static_cast<std::uint32_t>(i),
                                    dist_.data() + i * n};
    out_.assignment.push_back(table_.classify(interval, trace_[i].dds,
                                              thresholds.bbv, thresholds.dds)
                                  .phase);
  }
  out_.distinct_phases = static_cast<unsigned>(table_.phases_issued());
  out_.footprint_replacements = table_.replacements();
  return out_;
}

ClassifiedTrace classify_trace(const std::vector<phase::IntervalRecord>& trace,
                               bool use_dds, unsigned footprint_capacity,
                               phase::Thresholds thresholds) {
  return TraceReplay(trace, use_dds, footprint_capacity).classify(thresholds);
}

}  // namespace dsm::analysis
