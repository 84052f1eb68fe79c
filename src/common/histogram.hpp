/// \file histogram.hpp
/// \brief The one deterministic histogram type: the observability
/// registry's histograms and Accumulator's quantiles both use it.
///
/// All state is integer bucket counts plus exact extrema, so merging
/// per-worker histograms is exact and order-independent — the property the
/// registry needs to produce bit-identical snapshots at any thread count
/// (see docs/ARCHITECTURE.md "Observability").

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dqcsim {

/// Integer-count histogram with exact, order-independent merge and
/// interpolated quantiles. Two binning modes:
///
/// - **fixed** — `bins` equal-width bins over [lo, hi) with tail buckets,
///   for metrics whose range is known up front (pair age, wait times);
/// - **logarithmic** — quarter-octave power-of-two buckets spanning
///   [2^-20, 2^30), for streaming quantiles over unknown ranges. Bucket
///   edges are exact binary constants (ldexp of 2^{k/4} literals), so the
///   bucketing is bit-identical across platforms.
///
/// A sample lands in the bucket whose stored edges enclose it (an
/// upper-bound search, not a division). With a power-of-two bin width the
/// edges `lo + width * i` are exact, so this is the bin that
/// `floor((x - lo) / width)` names.
class Histogram {
 public:
  /// Unconfigured histogram; add() is a no-op until configured. Holds no
  /// allocation, so resetting an unconfigured one by assignment is free.
  Histogram() = default;

  /// Fixed-bin mode. Preconditions: bins > 0, lo < hi.
  static Histogram fixed(double lo, double hi, std::size_t bins);

  /// Logarithmic (quarter-octave) mode.
  static Histogram logarithmic();

  /// Record one sample; values outside the edges go to the underflow /
  /// overflow tails. No-op when unconfigured.
  void add(double v) noexcept;

  /// Merge another histogram of the same configuration (exact integer
  /// addition; commutative and associative).
  void merge(const Histogram& other);

  /// Interpolated q-quantile; 0 when empty, q clamped to [0, 1]. Tail mass
  /// outside the edges interpolates against the exact min()/max(), so
  /// quantiles never leave the observed range.
  double quantile(double q) const noexcept;

  std::uint64_t count() const noexcept { return n_; }
  /// Smallest / largest recorded sample; 0 when empty.
  double min() const noexcept { return n_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return n_ == 0 ? 0.0 : max_; }

  /// Count in bin i. Precondition: i < number of bins.
  std::uint64_t bin_count(std::size_t i) const;
  /// Lower edge of bin i (the upper edge of the last bin at i = number of
  /// bins). Precondition: i <= number of bins.
  double bin_edge(std::size_t i) const;
  std::uint64_t underflow() const noexcept { return under_; }
  std::uint64_t overflow() const noexcept { return over_; }

  bool configured() const noexcept { return mode_ != Mode::None; }
  bool same_config(const Histogram& other) const noexcept;

  /// Zero all counts and extrema, keeping the bucket configuration.
  void reset_values() noexcept;

 private:
  enum class Mode : std::uint8_t { None, Fixed, Log };

  Mode mode_ = Mode::None;
  std::vector<double> edges_;  ///< ascending, buckets + 1 entries
  std::vector<std::uint64_t> counts_;
  std::uint64_t under_ = 0;
  std::uint64_t over_ = 0;
  std::uint64_t n_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace dqcsim
