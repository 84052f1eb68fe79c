#include "common/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dqcsim {

namespace {

// 2^{k/4} for k = 0..3, as exact double literals: the quarter-octave
// sub-bucket multipliers. Combined with ldexp (exact), the log-mode edges
// are bit-identical on every platform — no libm pow/exp2 involved.
constexpr double kQuarterOctave[4] = {1.0, 1.189207115002721,
                                      1.4142135623730951, 1.681792830507429};
constexpr int kLogMinExp = -20;  // first edge 2^-20 (~1e-6)
constexpr int kLogMaxExp = 30;   // last edge 2^30 (~1e9)

}  // namespace

Histogram Histogram::fixed(double lo, double hi, std::size_t bins) {
  DQCSIM_EXPECTS(bins > 0);
  DQCSIM_EXPECTS(lo < hi);
  Histogram h;
  h.mode_ = Mode::Fixed;
  h.edges_.resize(bins + 1);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (std::size_t i = 0; i <= bins; ++i) {
    h.edges_[i] = lo + width * static_cast<double>(i);
  }
  h.edges_[bins] = hi;
  h.counts_.assign(bins, 0);
  return h;
}

Histogram Histogram::logarithmic() {
  Histogram h;
  h.mode_ = Mode::Log;
  const std::size_t octaves = static_cast<std::size_t>(kLogMaxExp - kLogMinExp);
  h.edges_.resize(octaves * 4 + 1);
  for (std::size_t i = 0; i < h.edges_.size(); ++i) {
    h.edges_[i] = std::ldexp(kQuarterOctave[i % 4],
                             kLogMinExp + static_cast<int>(i / 4));
  }
  h.counts_.assign(h.edges_.size() - 1, 0);
  return h;
}

void Histogram::add(double v) noexcept {
  if (mode_ == Mode::None) return;
  ++n_;
  min_ = n_ == 1 ? v : std::min(min_, v);
  max_ = n_ == 1 ? v : std::max(max_, v);
  if (v < edges_.front()) {
    ++under_;
  } else if (v >= edges_.back()) {
    ++over_;
  } else {
    // upper_bound keeps bucketing consistent with the stored edges even
    // where a division would round differently at a bin boundary.
    const auto it = std::upper_bound(edges_.begin(), edges_.end(), v);
    ++counts_[static_cast<std::size_t>(it - edges_.begin()) - 1];
  }
}

void Histogram::merge(const Histogram& other) {
  if (other.n_ == 0) return;
  DQCSIM_EXPECTS(same_config(other));
  min_ = n_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = n_ == 0 ? other.max_ : std::max(max_, other.max_);
  n_ += other.n_;
  under_ += other.under_;
  over_ += other.over_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
}

// Bin i covers [edges_[i], edges_[i+1]). Underflow mass interpolates over
// [min_, edges_.front()] and overflow mass over [edges_.back(), max_],
// clamped so the result stays inside the observed [min_, max_].
double Histogram::quantile(double q) const noexcept {
  if (n_ == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const double target = q * static_cast<double>(n_);
  double cum = 0.0;
  // Each populated segment interpolates linearly over its overlap with the
  // observed [min, max] range, so a single-valued distribution reports the
  // exact value and quantiles never leave the range.
  if (under_ > 0) {
    const double mass = static_cast<double>(under_);
    if (cum + mass >= target) {
      const double hi = std::min(edges_.front(), max_);
      return min_ + (target - cum) / mass * (hi - min_);
    }
    cum += mass;
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double mass = static_cast<double>(counts_[i]);
    if (cum + mass >= target) {
      const double lo = std::max(edges_[i], min_);
      const double hi = std::min(edges_[i + 1], max_);
      return lo + (target - cum) / mass * (hi - lo);
    }
    cum += mass;
  }
  const double lo = std::max(edges_.back(), min_);
  const double mass = static_cast<double>(over_);
  return lo + (target - cum) / mass * (max_ - lo);
}

std::uint64_t Histogram::bin_count(std::size_t i) const {
  DQCSIM_EXPECTS(i < counts_.size());
  return counts_[i];
}

double Histogram::bin_edge(std::size_t i) const {
  DQCSIM_EXPECTS(i < edges_.size());
  return edges_[i];
}

bool Histogram::same_config(const Histogram& other) const noexcept {
  return mode_ == other.mode_ && edges_ == other.edges_;
}

void Histogram::reset_values() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  under_ = 0;
  over_ = 0;
  n_ = 0;
  min_ = 0.0;
  max_ = 0.0;
}

}  // namespace dqcsim
