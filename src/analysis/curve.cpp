#include "analysis/curve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "analysis/classifier.hpp"
#include "analysis/cov.hpp"
#include "common/assert.hpp"

namespace dsm::analysis {
namespace {

/// Per-processor DDS scale anchors for the threshold sweep. The *noise
/// floor* (median absolute consecutive difference) is where thresholds
/// stop fragmenting stationary behaviour; the *range* (max - min) is where
/// the DDS constraint stops mattering. Sweeping geometrically between the
/// two covers every useful operating point regardless of each node's DDS
/// magnitude (which depends on its distance profile).
struct DdsScale {
  double noise = 0.0;
  double range = 0.0;
};

DdsScale dds_scale(const std::vector<phase::IntervalRecord>& trace) {
  DdsScale s;
  if (trace.empty()) return s;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  std::vector<double> diffs;
  diffs.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    lo = std::min(lo, trace[i].dds);
    hi = std::max(hi, trace[i].dds);
    if (i > 0) diffs.push_back(std::abs(trace[i].dds - trace[i - 1].dds));
  }
  s.range = hi - lo;
  if (!diffs.empty()) {
    std::nth_element(diffs.begin(), diffs.begin() + diffs.size() / 2,
                     diffs.end());
    s.noise = diffs[diffs.size() / 2];
  }
  if (s.noise <= 0.0) s.noise = s.range > 0.0 ? s.range * 1e-3 : 1.0;
  return s;
}

/// Threshold for sweep position `frac` in [0, 1]: geometric from half the
/// noise floor to the full range (frac == 1 disables the DDS constraint).
double dds_threshold_at(const DdsScale& s, double frac) {
  if (frac >= 1.0) return s.range;
  const double lo = 0.5 * s.noise;
  const double hi = std::max(s.range, lo * 2.0);
  return lo * std::pow(hi / lo, frac);
}

/// Quadratic sweep position: dense resolution at small thresholds, where
/// phase counts change fastest.
double sweep_frac(unsigned k, unsigned steps) {
  if (steps <= 1) return 1.0;
  const double f = static_cast<double>(k) / (steps - 1);
  return f * f;
}

/// Relative DDS setting of grid column `j`, which a grid point records.
double dds_frac(unsigned j, unsigned steps) {
  return steps <= 1 ? 1.0 : static_cast<double>(j) / (steps - 1);
}

/// Replays every processor's trace at each (bbv_sweep x dds_sweep)
/// setting and averages across processors, one point per setting, DDS
/// varying fastest (BBV-only: one DDS column, threshold 0). Processors
/// are the outer loop, so one distance matrix is alive at a time and each
/// point still adds its processors in order.
std::vector<CurvePoint> replay_sweep(
    const std::vector<phase::ProcessorTrace>& procs, const CurveParams& p,
    bool use_dds) {
  const std::vector<std::uint64_t> bbv = bbv_sweep(p);
  const std::size_t cols = use_dds ? p.dds_steps : 1;
  std::vector<CurvePoint> out(bbv.size() * cols);
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k].thresholds.bbv = bbv[k / cols];
    // A grid point stores its relative DDS setting.
    if (use_dds) out[k].thresholds.dds = dds_frac(k % cols, p.dds_steps);
  }
  // The mean fields hold sums over processors until the division below.
  unsigned counted = 0;
  for (const auto& proc : procs) {
    const auto& trace = proc.intervals;
    if (trace.empty()) continue;
    ++counted;
    const std::vector<double> dds =
        use_dds ? dds_sweep(trace, p) : std::vector<double>{0.0};
    TraceReplay replay(trace, use_dds, p.footprint_capacity);
    for (std::size_t i = 0; i < bbv.size(); ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        const auto& cls = replay.classify({.bbv = bbv[i], .dds = dds[j]});
        CurvePoint& pt = out[i * cols + j];
        pt.mean_cov += identifier_cov(trace, cls.assignment);
        pt.mean_phases += cls.distinct_phases;
        pt.tuning_fraction +=
            std::min(1.0, static_cast<double>(cls.distinct_phases) *
                              p.tuning_trials / trace.size());
      }
    }
  }
  if (counted > 0) {
    for (auto& pt : out) {
      pt.mean_cov /= counted;
      pt.mean_phases /= counted;
      pt.tuning_fraction /= counted;
    }
  }
  return out;
}

}  // namespace

std::vector<std::uint64_t> bbv_sweep(const CurveParams& p) {
  std::vector<std::uint64_t> out;
  out.reserve(p.bbv_steps);
  const double max_dist = 2.0 * p.bbv_norm;
  for (unsigned k = 0; k < p.bbv_steps; ++k)
    out.push_back(
        static_cast<std::uint64_t>(sweep_frac(k, p.bbv_steps) * max_dist));
  return out;
}

std::vector<double> dds_sweep(const std::vector<phase::IntervalRecord>& trace,
                              const CurveParams& p) {
  const DdsScale s = dds_scale(trace);
  std::vector<double> out;
  out.reserve(p.dds_steps);
  for (unsigned j = 0; j < p.dds_steps; ++j)
    out.push_back(dds_threshold_at(s, dds_frac(j, p.dds_steps)));
  return out;
}

std::vector<CurvePoint> bbv_cov_curve(
    const std::vector<phase::ProcessorTrace>& procs, const CurveParams& p) {
  return replay_sweep(procs, p, /*use_dds=*/false);
}

std::vector<CurvePoint> bbv_ddv_cov_points(
    const std::vector<phase::ProcessorTrace>& procs, const CurveParams& p) {
  // Full bbv resolution on one axis and the dds sweep on the other. The
  // dds sweep includes frac == 1.0 (threshold = the full observed DDS
  // range), which degenerates to the BBV baseline — so the lower envelope
  // of this grid can never lie above the baseline curve.
  return replay_sweep(procs, p, /*use_dds=*/true);
}

std::vector<CurvePoint> lower_envelope(std::vector<CurvePoint> points) {
  // Bucket phase counts at 0.5 resolution; keep the min-CoV point of each.
  std::map<long, CurvePoint> best;
  for (const auto& pt : points) {
    const long bucket = std::lround(pt.mean_phases * 2.0);
    const auto it = best.find(bucket);
    if (it == best.end() || pt.mean_cov < it->second.mean_cov)
      best[bucket] = pt;
  }
  std::vector<CurvePoint> out;
  out.reserve(best.size());
  for (const auto& [bucket, pt] : best) out.push_back(pt);
  std::sort(out.begin(), out.end(),
            [](const CurvePoint& a, const CurvePoint& b) {
              return a.mean_phases < b.mean_phases;
            });
  return out;
}

std::vector<CurvePoint> bbv_ddv_cov_curve(
    const std::vector<phase::ProcessorTrace>& procs, const CurveParams& p) {
  return lower_envelope(bbv_ddv_cov_points(procs, p));
}

double cov_at_phases(const std::vector<CurvePoint>& curve, double phases) {
  DSM_ASSERT(!curve.empty());
  // Staircase reading: the best CoV the detector delivers within a budget
  // of `phases` phases. Robust to gaps in the swept phase counts (the
  // threshold->phases map is steppy for near-degenerate BBVs).
  double best = std::numeric_limits<double>::infinity();
  double smallest_phases = std::numeric_limits<double>::infinity();
  double cov_at_smallest = 0.0;
  for (const auto& pt : curve) {
    if (pt.mean_phases <= phases) best = std::min(best, pt.mean_cov);
    if (pt.mean_phases < smallest_phases) {
      smallest_phases = pt.mean_phases;
      cov_at_smallest = pt.mean_cov;
    }
  }
  // Budget below every achievable operating point: report the coarsest one.
  return std::isinf(best) ? cov_at_smallest : best;
}

double phases_for_cov(const std::vector<CurvePoint>& curve,
                      double target_cov) {
  double best = 1e9;
  for (const auto& pt : curve) {
    if (pt.mean_cov <= target_cov) best = std::min(best, pt.mean_phases);
  }
  return best;
}

}  // namespace dsm::analysis
