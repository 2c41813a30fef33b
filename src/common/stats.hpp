// stats.hpp — statistics accumulators used by the simulator and by the
// CoV analysis of the paper's evaluation (Section II defines CoV of CPI).
#pragma once

#include <cstdint>
#include <span>

namespace dsm {

/// Numerically stable running mean/variance (Welford's algorithm).
class RunningStat {
 public:
  void add(double x);
  void merge(const RunningStat& other);
  void reset();

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance (divide by n), matching the paper's CoV use where
  /// every interval of a phase is observed, not sampled.
  double variance() const;
  double stddev() const;
  /// Coefficient of variation: stddev / mean; 0 when mean is 0 or n < 2.
  double cov() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Mean of a span (0 for empty), and population CoV helpers used by the
/// analysis module.
double mean_of(std::span<const double> xs);
double stddev_of(std::span<const double> xs);
double cov_of(std::span<const double> xs);

}  // namespace dsm
