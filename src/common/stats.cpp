#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dqcsim {

void Accumulator::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  hist_.add(x);
}

double Accumulator::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const noexcept { return std::sqrt(variance()); }

double Accumulator::stderr_mean() const noexcept {
  return n_ == 0 ? 0.0 : stddev() / std::sqrt(static_cast<double>(n_));
}

double Accumulator::ci95_half_width() const noexcept {
  return 1.96 * stderr_mean();
}

void Accumulator::enable_histogram(double lo, double hi, std::size_t bins) {
  DQCSIM_EXPECTS(n_ == 0);
  hist_ = Histogram::fixed(lo, hi, bins);
}

double Accumulator::quantile(double q) const {
  DQCSIM_EXPECTS(histogram_enabled());
  return hist_.quantile(q);
}

}  // namespace dqcsim
