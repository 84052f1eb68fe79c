/// \file expect_identical.hpp
/// \brief The determinism suites' one bit-identity check, generated from
/// the metric table (runtime/metrics.hpp), so every suite compares every
/// metric.

#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <type_traits>

#include "common/stats.hpp"
#include "runtime/metrics.hpp"

namespace dqcsim::runtime {

/// A value's bit pattern: doubles compare bitwise (so -0.0 != 0.0 and a
/// NaN equals itself), everything else by value.
template <typename T>
auto metric_bits(T x) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::bit_cast<std::uint64_t>(x);
  } else {
    return x;
  }
}

/// Every statistic an Accumulator reports, compared bitwise; quantiles at
/// 0.5 and 0.99 when the histogram is enabled.
inline void expect_identical(const Accumulator& a, const Accumulator& b,
                             const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(metric_bits(a.mean()), metric_bits(b.mean()))
      << what << " mean " << a.mean() << " vs " << b.mean();
  EXPECT_EQ(metric_bits(a.variance()), metric_bits(b.variance()))
      << what << " variance " << a.variance() << " vs " << b.variance();
  EXPECT_EQ(metric_bits(a.min()), metric_bits(b.min()))
      << what << " min " << a.min() << " vs " << b.min();
  EXPECT_EQ(metric_bits(a.max()), metric_bits(b.max()))
      << what << " max " << a.max() << " vs " << b.max();
  ASSERT_EQ(a.histogram_enabled(), b.histogram_enabled()) << what;
  if (!a.histogram_enabled()) return;
  for (const double q : {0.5, 0.99}) {
    EXPECT_EQ(metric_bits(a.quantile(q)), metric_bits(b.quantile(q)))
        << what << " quantile(" << q << ") " << a.quantile(q) << " vs "
        << b.quantile(q);
  }
}

/// Every AggregateResult accumulator, bitwise.
inline void expect_identical(const AggregateResult& a,
                             const AggregateResult& b) {
#define DQCSIM_EXPECT_SAME_ACCUMULATOR(type, name, init, fold) \
  expect_identical(a.name, b.name, #name);
  DQCSIM_TRIAL_METRICS(DQCSIM_EXPECT_SAME_ACCUMULATOR)
#undef DQCSIM_EXPECT_SAME_ACCUMULATOR
}

/// Every RunResult field, bitwise.
inline void expect_identical(const RunResult& a, const RunResult& b) {
#define DQCSIM_EXPECT_SAME_FIELD(type, name, init, fold)  \
  EXPECT_EQ(metric_bits(a.name), metric_bits(b.name)) \
      << #name << ": " << a.name << " vs " << b.name;
  DQCSIM_TRIAL_METRICS(DQCSIM_EXPECT_SAME_FIELD)
#undef DQCSIM_EXPECT_SAME_FIELD
}

}  // namespace dqcsim::runtime
