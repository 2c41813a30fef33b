// curve.hpp — CoV-curve construction, the paper's §II "new tool ... that
// helps quantify the quality of phase detection of a particular mechanism
// across multiple operating points".
//
// One point = one threshold setting, evaluated on every processor's trace
// with the offline classifier; per-processor identifier CoVs and phase
// counts are then *averaged across processors* ("we compute identifier CoV
// curves for each processor, and then average them together to obtain the
// overall system-wide CoV curve", §III-A).
//
// BBV baseline: 200 threshold values (paper §III-A) swept quadratically
// over the normalized-Manhattan range. BBV+DDV: a (bbv x dds) threshold
// grid; the published curve is the lower envelope over phase counts, since
// the paper plots a single curve from a two-parameter sweep.
#pragma once

#include <cstdint>
#include <vector>

#include "phase/detector.hpp"
#include "phase/interval_record.hpp"

namespace dsm::analysis {

struct CurvePoint {
  double mean_phases = 0.0;      ///< x axis (averaged over processors)
  double mean_cov = 0.0;         ///< y axis: identifier CoV of CPI
  double tuning_fraction = 0.0;  ///< (phases * trials) / intervals
  phase::Thresholds thresholds;  ///< the setting that produced this point
};

struct CurveParams {
  unsigned footprint_capacity = 32;  ///< paper: 32-vector footprint table
  unsigned bbv_steps = 200;          ///< paper: two hundred threshold values
  unsigned dds_steps = 12;           ///< grid resolution for the DDS axis
  /// Intervals spent trial-tuning each newly seen phase (the §II
  /// reconfiguration model); only affects the tuning_fraction axis.
  unsigned tuning_trials = 4;
  std::uint32_t bbv_norm = 1u << 16;
};

/// The BBV thresholds both curves sweep: bbv_steps values, quadratic over
/// 0 .. 2 * bbv_norm (dense where phase counts change fastest).
std::vector<std::uint64_t> bbv_sweep(const CurveParams& p);

/// The DDS thresholds the BBV+DDV grid sweeps for one processor's trace:
/// dds_steps values, geometric from half its DDS noise floor to its full
/// DDS range (the last one disables the DDS constraint).
std::vector<double> dds_sweep(const std::vector<phase::IntervalRecord>& trace,
                              const CurveParams& p);

/// BBV-only curve over all processors' traces.
std::vector<CurvePoint> bbv_cov_curve(
    const std::vector<phase::ProcessorTrace>& procs, const CurveParams& p);

/// BBV+DDV curve: full grid; use lower_envelope() for the plotted series.
std::vector<CurvePoint> bbv_ddv_cov_points(
    const std::vector<phase::ProcessorTrace>& procs, const CurveParams& p);

/// Keeps, for each integer-rounded phase count, the point with minimal
/// CoV; output sorted by mean_phases. This is what gets plotted.
std::vector<CurvePoint> lower_envelope(std::vector<CurvePoint> points);

/// Convenience: bbv_ddv_cov_points + lower_envelope.
std::vector<CurvePoint> bbv_ddv_cov_curve(
    const std::vector<phase::ProcessorTrace>& procs, const CurveParams& p);

/// Interpolates the curve's CoV at a given phase count (linear between
/// bracketing points; clamped at the ends). Used by benches to report
/// "CoV at N phases" comparisons like the paper's FMM numbers.
double cov_at_phases(const std::vector<CurvePoint>& curve, double phases);

/// Smallest mean phase count on the curve achieving CoV <= target
/// (+inf-like sentinel 1e9 when never reached).
double phases_for_cov(const std::vector<CurvePoint>& curve, double target_cov);

}  // namespace dsm::analysis
