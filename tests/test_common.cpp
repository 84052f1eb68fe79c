/// Unit tests for common utilities: RNG, statistics, tables, CSV, errors.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/histogram.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace dqcsim {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DistinctSeedsGiveDistinctStreams) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() != b()) ++differences;
  }
  EXPECT_GT(differences, 60);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(rng.uniform());
  EXPECT_NEAR(acc.mean(), 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 2.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 2.0);
  }
}

TEST(Rng, UniformIntCoversAllResidues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.4) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.4, 0.01);
}

TEST(Rng, BernoulliDegenerateCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_FALSE(rng.bernoulli(-1.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_TRUE(rng.bernoulli(2.0));
}

TEST(Rng, GeometricMeanMatchesTheory) {
  Rng rng(17);
  Accumulator acc;
  const double p = 0.4;
  for (int i = 0; i < 100000; ++i) {
    acc.add(static_cast<double>(rng.geometric(p)));
  }
  // E[failures before success] = (1-p)/p = 1.5.
  EXPECT_NEAR(acc.mean(), (1.0 - p) / p, 0.05);
}

TEST(Rng, GeometricWithCertainSuccessIsZero) {
  Rng rng(1);
  EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, GeometricSaturatesForTinyP) {
  // log(u) / log1p(-p) is ~1e300 here, far past 2^64: the draw saturates
  // instead of hitting an undefined float-to-integer cast.
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.geometric(1e-300), UINT64_MAX);
  }
  // Just inside the representable range the draw is an ordinary integer.
  EXPECT_LT(rng.geometric(1e-12), UINT64_MAX);
}

TEST(Rng, ExponentialMeanMatchesTheory) {
  Rng rng(19);
  Accumulator acc;
  const double mean = 2.5;
  for (int i = 0; i < 100000; ++i) {
    acc.add(rng.exponential(mean));
  }
  EXPECT_NEAR(acc.mean(), mean, 0.05);
}

TEST(Rng, ExponentialIsTheBlessedInversionSample) {
  // exponential() is the blessed libm wrapper for Exp sampling (the
  // no-raw-libm lint rule routes engine code here). Pin the contract:
  // one uniform() draw per call, transformed by -mean * log(1 - u), so
  // swapping an inline formula for the wrapper is bit-identical.
  Rng a(31);
  Rng b(31);
  for (int i = 0; i < 100; ++i) {
    const double u = a.uniform();
    EXPECT_EQ(b.exponential(4.0), -4.0 * std::log(1.0 - u));
  }
  // Both streams consumed the same number of draws.
  EXPECT_EQ(a(), b());
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(23);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(v);
  std::set<int> seen(v.begin(), v.end());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(29);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = i;
  const auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.split();
  // The child must not replay the parent's stream.
  Rng parent_copy(31);
  parent_copy.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child() == parent()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

// --------------------------------------------------------- Accumulator ----

TEST(Accumulator, EmptyDefaults) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_EQ(acc.stderr_mean(), 0.0);
}

TEST(Accumulator, EmptyExtremaAreFiniteZero) {
  // Regression: an empty accumulator used to leak its ±inf sentinels
  // through min()/max() into bench reports, where the JSON writer has no
  // representation for non-finite doubles and emitted `null` — crashing
  // the CI regression gate. Empty extrema are now 0 (count() == 0
  // distinguishes "no data" from a genuine 0 observation).
  Accumulator acc;
  EXPECT_EQ(acc.min(), 0.0);
  EXPECT_EQ(acc.max(), 0.0);
  EXPECT_TRUE(std::isfinite(acc.min()));
  EXPECT_TRUE(std::isfinite(acc.max()));
  // Adding data restores real extrema.
  acc.add(-2.5);
  EXPECT_DOUBLE_EQ(acc.min(), -2.5);
  EXPECT_DOUBLE_EQ(acc.max(), -2.5);
}

TEST(Accumulator, MeanAndVarianceKnownSample) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Sample variance of this classic sample is 32/7.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Accumulator, MinMaxTracked) {
  Accumulator acc;
  for (double x : {3.0, -1.0, 7.5, 2.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.min(), -1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 7.5);
}

TEST(Accumulator, Ci95ShrinksWithSamples) {
  Accumulator small, large;
  Rng rng(41);
  for (int i = 0; i < 10; ++i) small.add(rng.uniform());
  for (int i = 0; i < 10000; ++i) large.add(rng.uniform());
  EXPECT_GT(small.ci95_half_width(), large.ci95_half_width());
}

TEST(Accumulator, QuantileUniformBins) {
  Accumulator acc;
  acc.enable_histogram(0.0, 10.0, 10);
  EXPECT_TRUE(acc.histogram_enabled());
  for (int i = 0; i < 10; ++i) acc.add(static_cast<double>(i) + 0.5);
  // One sample per unit bin: the interpolated median lands on the bin
  // boundary where half the mass has accumulated.
  EXPECT_DOUBLE_EQ(acc.quantile(0.5), 5.0);
  // q outside [0, 1] clamps to the exact extrema.
  EXPECT_DOUBLE_EQ(acc.quantile(0.0), 0.5);
  EXPECT_DOUBLE_EQ(acc.quantile(-3.0), 0.5);
  EXPECT_DOUBLE_EQ(acc.quantile(1.0), 9.5);
  EXPECT_DOUBLE_EQ(acc.quantile(2.0), 9.5);
}

TEST(Accumulator, QuantileEmptyIsZero) {
  Accumulator acc;
  acc.enable_histogram(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(acc.quantile(0.5), 0.0);
}

TEST(Accumulator, QuantileSingleValueClampsToObservation) {
  // The bin spans [3, 4) but the only observation is 3.7: interpolation is
  // clamped to the observed [min, max], so every quantile reports 3.7.
  Accumulator acc;
  acc.enable_histogram(0.0, 10.0, 10);
  acc.add(3.7);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(acc.quantile(q), 3.7) << "q=" << q;
  }
}

TEST(Accumulator, QuantileTailMassStaysInObservedRange) {
  // Samples outside [lo, hi) land in the under/overflow tails, which
  // interpolate against the exact extrema instead of escaping the range.
  Accumulator acc;
  acc.enable_histogram(0.0, 10.0, 10);
  for (double x : {-6.0, -2.0, 5.5, 14.0, 20.0}) acc.add(x);
  EXPECT_GE(acc.quantile(0.01), -6.0);
  EXPECT_LE(acc.quantile(0.99), 20.0);
  EXPECT_DOUBLE_EQ(acc.quantile(0.0), -6.0);
  EXPECT_DOUBLE_EQ(acc.quantile(1.0), 20.0);
}

// ------------------------------------------------------------ Histogram ----

TEST(Histogram, BinsCountCorrectly) {
  Histogram h = Histogram::fixed(0.0, 10.0, 10);
  for (double x : {0.5, 1.5, 1.7, 9.9}) h.add(x);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 2u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.count(), 4u);
}

TEST(Histogram, UnderflowAndOverflow) {
  Histogram h = Histogram::fixed(0.0, 1.0, 4);
  h.add(-0.1);
  h.add(1.0);  // hi edge is exclusive
  h.add(0.5);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bin_count(2), 1u);
}

TEST(Histogram, EdgesAreUniform) {
  Histogram h = Histogram::fixed(2.0, 4.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_edge(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_edge(2), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_edge(4), 4.0);
}

TEST(Histogram, RejectsInvalidConstruction) {
  EXPECT_THROW(Histogram::fixed(0.0, 1.0, 0), PreconditionError);
  EXPECT_THROW(Histogram::fixed(1.0, 1.0, 4), PreconditionError);
}

TEST(Histogram, MergeIsAssociativeAndOrderIndependent) {
  // Bin counts are integers and extrema are exact min/max, so merge is
  // associative and commutative bit-for-bit — the property the registry's
  // per-worker merge relies on for determinism at any thread count.
  const auto fresh = [] { return Histogram::fixed(0.0, 10.0, 20); };
  Histogram a = fresh(), b = fresh(), c = fresh(), all = fresh();
  Rng rng(91);
  for (int i = 0; i < 900; ++i) {
    const double x = rng.uniform(-2.0, 14.0);  // exercises the tails too
    all.add(x);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(x);
  }
  Histogram left = fresh();   // (a + b) + c
  Histogram right = fresh();  // a + (b + c)
  left.merge(a);
  left.merge(b);
  left.merge(c);
  Histogram bc = fresh();
  bc.merge(b);
  bc.merge(c);
  right.merge(a);
  right.merge(bc);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_EQ(right.count(), all.count());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(left.quantile(q), all.quantile(q)) << "q=" << q;
    EXPECT_DOUBLE_EQ(right.quantile(q), all.quantile(q)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Histogram, MergeWithEmptySameConfig) {
  Histogram h = Histogram::fixed(0.0, 4.0, 4);
  Histogram empty = Histogram::fixed(0.0, 4.0, 4);
  h.add(1.0);
  h.add(3.0);
  h.merge(empty);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
  empty.merge(h);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 1.0);
}

TEST(Histogram, PowerOfTwoWidthBinsMatchDivision) {
  // AggregateResult's quantile ranges have power-of-two bin widths (0.5, 8,
  // 128), so the edges lo + width * i are exact and the upper-bound
  // bucketing puts every sample in bin floor((x - lo) / width): edges,
  // their neighbouring doubles, subnormals and random samples alike.
  for (const double hi : {256.0, 4096.0, 65536.0}) {
    constexpr std::size_t kBins = 512;
    const double width = hi / static_cast<double>(kBins);
    std::vector<double> xs = {0.0, std::numeric_limits<double>::denorm_min(),
                              std::numeric_limits<double>::min()};
    for (std::size_t i = 1; i <= kBins; ++i) {
      const double edge = width * static_cast<double>(i);
      xs.push_back(std::nextafter(edge, 0.0));
      if (i < kBins) xs.push_back(edge);
      if (i < kBins) xs.push_back(std::nextafter(edge, hi));
    }
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) xs.push_back(rng.uniform(0.0, hi));
    Histogram h = Histogram::fixed(0.0, hi, kBins);
    std::vector<std::uint64_t> expected(kBins, 0);
    for (const double x : xs) {
      h.add(x);
      ++expected[static_cast<std::size_t>(x / width)];
    }
    for (std::size_t i = 0; i < kBins; ++i) {
      ASSERT_EQ(h.bin_count(i), expected[i]) << "hi=" << hi << " bin " << i;
    }
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
  }
}

// --------------------------------------------------------- TablePrinter ----

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.50"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name   | value"), std::string::npos);
  EXPECT_NE(out.find("longer |  2.50"), std::string::npos);
}

TEST(TablePrinter, RejectsMismatchedRow) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(TablePrinter, FormatsNumbers) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(std::size_t{42}), "42");
  EXPECT_EQ(TablePrinter::fmt(-7), "-7");
}

// ------------------------------------------------------------ CsvWriter ----

TEST(CsvWriter, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "dqcsim_csv_test.csv";
  {
    CsvWriter csv(path, {"x", "y"});
    csv.add_row({"1", "2"});
    csv.add_row({"3", "4,5"});
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3,\"4,5\"");
  std::remove(path.c_str());
}

TEST(CsvWriter, RejectsWrongWidth) {
  const std::string path = ::testing::TempDir() + "dqcsim_csv_width.csv";
  CsvWriter csv(path, {"a", "b", "c"});
  EXPECT_THROW(csv.add_row({"1", "2"}), PreconditionError);
  std::remove(path.c_str());
}

TEST(CsvWriter, ThrowsOnUnopenablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), ConfigError);
}

// ----------------------------------------------------------------- JSON ----

TEST(Json, ScalarsAndNesting) {
  JsonValue doc = JsonValue::object();
  doc.set("name", "bench");
  doc.set("version", 3);
  doc.set("ratio", 1.5);
  doc.set("ok", true);
  doc.set("nothing", JsonValue{});
  JsonValue arr = JsonValue::array();
  arr.push(1).push(2.5).push("three");
  doc.set("items", std::move(arr));
  EXPECT_EQ(doc.dump(0),
            "{\"name\": \"bench\", \"version\": 3, \"ratio\": 1.5, "
            "\"ok\": true, \"nothing\": null, \"items\": [1, 2.5, "
            "\"three\"]}");
}

TEST(Json, SetOverwritesExistingKeyInPlace) {
  JsonValue doc = JsonValue::object();
  doc.set("a", 1).set("b", 2).set("a", 3);
  EXPECT_EQ(doc.dump(0), "{\"a\": 3, \"b\": 2}");
}

TEST(Json, EscapesStrings) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  JsonValue doc = JsonValue::array();
  doc.push(std::numeric_limits<double>::infinity());
  doc.push(std::nan(""));
  EXPECT_EQ(doc.dump(0), "[null, null]");
}

TEST(Json, RoundTripsDoublesExactly) {
  JsonValue v(0.1 + 0.2);
  EXPECT_EQ(std::stod(v.dump(0)), 0.1 + 0.2);
}

TEST(Json, WriteFileThrowsOnUnopenablePath) {
  EXPECT_THROW(JsonValue::object().write_file("/nonexistent-dir/x.json"),
               ConfigError);
}

// ---------------------------------------------------------------- errors ----

TEST(ErrorMacros, ExpectsThrowsWithLocation) {
  try {
    DQCSIM_EXPECTS_MSG(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken"), std::string::npos);
  }
}

TEST(ErrorMacros, EnsuresThrowsInvariantError) {
  EXPECT_THROW(DQCSIM_ENSURES(false), InvariantError);
  EXPECT_NO_THROW(DQCSIM_ENSURES(true));
}

}  // namespace
}  // namespace dqcsim
