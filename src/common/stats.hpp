/// \file stats.hpp
/// \brief Streaming statistics used to aggregate multi-seed experiment runs.
///
/// The paper reports the average of 50 runs per configuration; Accumulator
/// provides numerically stable mean/variance (Welford), extrema, and a 95 %
/// normal-approximation confidence interval for those aggregates.

#pragma once

#include <cstddef>
#include <limits>

#include "common/histogram.hpp"

namespace dqcsim {

/// Numerically stable streaming mean / variance / extrema accumulator.
class Accumulator {
 public:
  /// Add one observation.
  void add(double x) noexcept;

  /// Number of observations added so far.
  std::size_t count() const noexcept { return n_; }

  /// Arithmetic mean; 0 when empty.
  double mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }

  /// Unbiased sample variance; 0 with fewer than two observations.
  double variance() const noexcept;

  /// Sample standard deviation.
  double stddev() const noexcept;

  /// Standard error of the mean.
  double stderr_mean() const noexcept;

  /// Half-width of the 95 % confidence interval for the mean
  /// (normal approximation, appropriate for the 50-run averages used here).
  double ci95_half_width() const noexcept;

  /// Smallest observation; 0 when empty (like mean(); check count() to
  /// distinguish. The extrema must stay finite: ±inf leaked into bench
  /// reports, where JSON has no representation and emitted `null`).
  double min() const noexcept { return n_ == 0 ? 0.0 : min_; }

  /// Largest observation; 0 when empty (see min()).
  double max() const noexcept { return n_ == 0 ? 0.0 : max_; }

  /// Opt in to a fixed-bin Histogram backing quantile(): `bins` equal-width
  /// bins over [lo, hi), with integer underflow/overflow tails for samples
  /// outside the range. Off by default so that default-constructed
  /// accumulators stay allocation-free — the engine resets its per-trial
  /// accumulators by assignment on the hot path. Must be called before the
  /// first add(); samples are not re-binned retroactively.
  /// Preconditions: bins > 0, lo < hi, count() == 0.
  void enable_histogram(double lo, double hi, std::size_t bins);

  /// Whether enable_histogram() has been called.
  bool histogram_enabled() const noexcept { return hist_.configured(); }

  /// Interpolated q-quantile of the observed distribution. Requires
  /// enable_histogram(); q is clamped to [0, 1]; 0 when empty (the same
  /// convention as mean()/min()/max()). Tail mass outside [lo, hi)
  /// interpolates against the exact min()/max(), so quantiles never leave
  /// the observed range.
  double quantile(double q) const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  Histogram hist_;  ///< unconfigured unless enable_histogram()
};

/// Streaming mean only: Accumulator's Welford mean update, bit for bit,
/// without variance, extrema or histogram. For per-trial statistics that
/// report nothing but their mean; add() is inline.
class MeanAccumulator {
 public:
  void add(double x) noexcept {
    ++n_;
    mean_ += (x - mean_) / static_cast<double>(n_);
  }

  std::size_t count() const noexcept { return n_; }

  /// Arithmetic mean; 0 when empty.
  double mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
};

}  // namespace dqcsim
