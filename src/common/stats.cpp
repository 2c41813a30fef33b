#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace dsm {

void RunningStat::add(double x) {
  ++n_;
  sum_ += x;
  if (n_ == 1) {
    mean_ = x;
    m2_ = 0.0;
    min_ = max_ = x;
    return;
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  // Chan et al. parallel combination.
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nab = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / nab;
  mean_ += delta * nb / nab;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStat::reset() { *this = RunningStat{}; }

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double RunningStat::cov() const {
  if (n_ < 2 || mean_ == 0.0) return 0.0;
  return stddev() / mean_;
}

double mean_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev_of(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean_of(xs);
  double acc = 0.0;
  for (const double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double cov_of(std::span<const double> xs) {
  const double m = mean_of(xs);
  if (m == 0.0) return 0.0;
  return stddev_of(xs) / m;
}

}  // namespace dsm
