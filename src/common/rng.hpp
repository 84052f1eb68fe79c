/// \file rng.hpp
/// \brief Deterministic pseudo-random number generation for simulations.
///
/// All stochastic components of dqcsim (entanglement-generation success,
/// workload generation, partitioner tie-breaking) draw from this generator so
/// that every experiment is reproducible from a single 64-bit seed.
/// The engine is xoshiro256** (Blackman & Vigna), seeded via splitmix64.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace dqcsim {

/// Deterministic 64-bit PRNG (xoshiro256**) with convenience distributions.
///
/// Satisfies the C++ UniformRandomBitGenerator concept, so it can also be
/// used with standard `<random>` distributions when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Construct from a 64-bit seed; distinct seeds give independent streams.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit value.
  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Fill `out[0..n)` with uniform doubles in [0, 1), consuming the stream
  /// exactly as n successive uniform() calls would. Batching the draws for
  /// a known-size consumer (e.g. all purification rounds of one remote
  /// gate) keeps the loop branch-free without perturbing replay.
  void fill_uniform(double* out, std::size_t n) noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t uniform_int(std::uint64_t n) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool bernoulli(double p) noexcept;

  /// Number of failures before the first success of a Bernoulli(p) process;
  /// i.e. a geometric variate with support {0, 1, 2, ...}.
  /// Precondition: 0 < p <= 1. Saturates at UINT64_MAX when the variate
  /// does not fit in 64 bits (p below ~1e-18 makes that likely); callers
  /// read a saturated draw as "no success within any reachable horizon".
  std::uint64_t geometric(double p) noexcept;

  /// log1p(-p): the per-p constant of geometric(p), for callers drawing
  /// many variates at one fixed p.
  static double geometric_log1m(double p) noexcept;

  /// geometric(p) given log1m = geometric_log1m(p): the same variate from
  /// the same stream position, with one logarithm per draw instead of two.
  std::uint64_t geometric_from_log1m(double log1m) noexcept;

  /// Exponential variate with the given mean (inversion method). uniform()
  /// is in [0, 1), so the log argument stays in (0, 1] and the result is
  /// finite and non-negative. This is the blessed wrapper for Exp sampling:
  /// callers in result-affecting subsystems must use it instead of spelling
  /// the -mean * log(1 - u) inversion with raw libm (docs/ARCHITECTURE.md
  /// "Determinism rules", no-raw-libm).
  double exponential(double mean) noexcept;

  /// Binomial(n, p) variate: the number of successes in n independent
  /// Bernoulli(p) trials (p clamped to [0, 1]). Inversion when
  /// n * min(p, 1 - p) < 30, else BTPE (Kachitvichyanukul & Schmeiser,
  /// "Binomial random variate generation", CACM 1988); p > 1/2 samples the
  /// failures. Exact at the degenerate points and draws nothing there:
  /// n == 0 or p <= 0 returns 0, p >= 1 returns n. Not
  /// std::binomial_distribution, whose output is implementation-defined:
  /// this stream is bit-identical across standard libraries.
  std::uint64_t binomial(std::uint64_t n, double p) noexcept;

  /// Fisher–Yates shuffle of a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_int(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child stream (for per-run seeding in sweeps).
  Rng split() noexcept;

  /// Seed of an independent side stream for component `index` of kind
  /// `tag` under (`base` seed, `salt`), by two splitmix64 finalizer
  /// rounds. Side streams keep optional consumers (scenario schedules,
  /// observation-only sampling) off a trial's main stream.
  static std::uint64_t derive_seed(std::uint64_t base, std::uint64_t salt,
                                   std::uint64_t tag,
                                   std::uint64_t index) noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace dqcsim
