#include "common/rng.hpp"

#include <algorithm>
#include <cmath>

namespace dqcsim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// Binomial(n, r) for r <= 1/2 and n * r < 30 by sequential inversion:
/// walk the pmf up from f(0) = (1 - r)^n until the uniform is used up.
std::uint64_t binomial_inversion(Rng& rng, std::uint64_t n, double r) noexcept {
  const double nd = static_cast<double>(n);
  const double q = 1.0 - r;
  const double s = r / q;
  const double a = (nd + 1.0) * s;  // f(x) = f(x - 1) * (a / x - s)
  // f(0) = q^n. For moderate n, square-and-multiply: exact operations
  // only, and q's rounding costs at most n ulps of f(0). Beyond, that
  // error would grow with n, so go through log1p(-r).
  double f0 = 1.0;
  if (n <= 1024) {
    double base = q;
    for (std::uint64_t e = n; e != 0; e >>= 1) {
      if ((e & 1) != 0) f0 *= base;
      base *= base;
    }
  } else {
    f0 = std::exp(nd * std::log1p(-r));
  }
  // The mass past `bound` is below 1e-20. A walk that reaches it (the
  // uniform outran the rounded pmf sum) restarts instead of running on.
  const double nr = nd * r;
  const double bound = std::min(nd, nr + 10.0 * std::sqrt(nr * q + 1.0));
  for (;;) {
    double u = rng.uniform();
    double f = f0;
    std::uint64_t x = 0;
    while (u > f) {
      ++x;
      if (static_cast<double>(x) > bound) break;
      u -= f;
      f *= a / static_cast<double>(x) - s;
    }
    if (static_cast<double>(x) <= bound) return x;
  }
}

/// 1/(12x) - 1/(360x^3) + 1/(1260x^5) - 1/(1680x^7) + 1/(1188x^9): the
/// Stirling-series remainder of log(x!) that BTPE's final test adds.
double stirling_tail(double x) noexcept {
  const double x2 = x * x;
  return (13860.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) /
         x / 166320.0;
}

/// Binomial(n, r) for r <= 1/2 and n * r >= 30 by BTPE (Kachitvichyanukul
/// & Schmeiser 1988): a triangle over the mode, parallelograms beside it
/// and exponential tails majorize the pmf; a candidate y outside the
/// triangle is accepted when v <= f(y) / f(mode), tested by recurrence
/// near the mode and by squeezes and a Stirling bound far from it. All
/// arithmetic is on integer-valued doubles (exact below 2^53).
std::uint64_t binomial_btpe(Rng& rng, std::uint64_t n_int, double r) noexcept {
  const double n = static_cast<double>(n_int);
  const double q = 1.0 - r;
  const double nrq = n * r * q;
  const double fm = n * r + r;
  const double m = std::floor(fm);  // the mode
  const double p1 = std::floor(2.195 * std::sqrt(nrq) - 4.6 * q) + 0.5;
  const double xm = m + 0.5;
  const double xl = xm - p1;
  const double xr = xm + p1;
  const double c = 0.134 + 20.5 / (15.3 + m);
  const double al = (fm - xl) / (fm - xl * r);
  const double lam_l = al * (1.0 + 0.5 * al);
  const double ar = (xr - fm) / (xr * q);
  const double lam_r = ar * (1.0 + 0.5 * ar);
  const double p2 = p1 * (1.0 + 2.0 * c);
  const double p3 = p2 + c / lam_l;
  const double p4 = p3 + c / lam_r;
  for (;;) {
    const double u = rng.uniform() * p4;
    double v = rng.uniform();
    if (u <= p1) {  // the triangle: accept outright
      return static_cast<std::uint64_t>(std::floor(xm - p1 * v + u));
    }
    double y;
    if (u <= p2) {  // the parallelograms
      const double x = xl + (u - p1) / c;
      v = v * c + 1.0 - std::abs(m - x + 0.5) / p1;
      if (v > 1.0) continue;
      y = std::floor(x);
    } else if (u <= p3) {  // the left exponential tail
      y = std::floor(xl + std::log(v) / lam_l);
      if (y < 0.0) continue;
      v *= (u - p2) * lam_l;
    } else {  // the right exponential tail
      y = std::floor(xr - std::log(v) / lam_r);
      if (y > n) continue;
      v *= (u - p3) * lam_r;
    }
    const double k = std::abs(y - m);
    if (k <= 20.0 || k >= nrq / 2.0 - 1.0) {
      // f(y) / f(m) by the pmf recurrence.
      const double s = r / q;
      const double a = (n + 1.0) * s;
      double f = 1.0;
      for (double i = m + 1.0; i <= y; i += 1.0) f *= a / i - s;
      for (double i = y + 1.0; i <= m; i += 1.0) f /= a / i - s;
      if (v <= f) return static_cast<std::uint64_t>(y);
      continue;
    }
    // Squeeze log(f(y) / f(m)) between normal-approximation bounds, then
    // decide the band between them with the Stirling-corrected value.
    const double rho =
        (k / nrq) * ((k * (k / 3.0 + 0.625) + 1.0 / 6.0) / nrq + 0.5);
    const double t = -k * k / (2.0 * nrq);
    const double log_v = std::log(v);
    if (log_v < t - rho) return static_cast<std::uint64_t>(y);
    if (log_v > t + rho) continue;
    const double x1 = y + 1.0;
    const double f1 = m + 1.0;
    const double z = n + 1.0 - m;
    const double w = n - y + 1.0;
    const double bound = xm * std::log(f1 / x1) +
                         (n - m + 0.5) * std::log(z / w) +
                         (y - m) * std::log(w * r / (x1 * q)) +
                         stirling_tail(f1) + stirling_tail(z) +
                         stirling_tail(x1) + stirling_tail(w);
    if (log_v <= bound) return static_cast<std::uint64_t>(y);
  }
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // xoshiro must not start from the all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

// DQCSIM_HOT
Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

// DQCSIM_HOT
double Rng::uniform() noexcept {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

// DQCSIM_HOT
void Rng::fill_uniform(double* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = uniform();
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

// DQCSIM_HOT
std::uint64_t Rng::uniform_int(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless bounded generation with rejection. The
  // threshold (2^64 - n) mod n is below n, so a low word at or above n is
  // accepted without computing it.
  __uint128_t m = static_cast<__uint128_t>((*this)()) * n;
  if (static_cast<std::uint64_t>(m) < n) {
    const std::uint64_t threshold = (~n + 1) % n;
    while (static_cast<std::uint64_t>(m) < threshold) {
      m = static_cast<__uint128_t>((*this)()) * n;
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::uint64_t Rng::geometric(double p) noexcept {
  if (p >= 1.0) return 0;
  return geometric_from_log1m(geometric_log1m(p));
}

double Rng::geometric_log1m(double p) noexcept { return std::log1p(-p); }

// DQCSIM_HOT
std::uint64_t Rng::geometric_from_log1m(double log1m) noexcept {
  // Inversion method: floor(log(U) / log(1-p)).
  const double u = 1.0 - uniform();  // in (0, 1]
  const double k = std::log(u) / log1m;
  // For tiny p the quotient exceeds 2^64, where the cast is undefined.
  if (!(k < 0x1.0p64)) return UINT64_MAX;
  return static_cast<std::uint64_t>(k);
}

double Rng::exponential(double mean) noexcept {
  return -mean * std::log(1.0 - uniform());
}

// DQCSIM_HOT
std::uint64_t Rng::binomial(std::uint64_t n, double p) noexcept {
  if (n == 0 || !(p > 0.0)) return 0;
  if (p >= 1.0) return n;
  // Sample the rarer outcome; 1 - p is exact for p > 1/2.
  const bool flip = p > 0.5;
  const double r = flip ? 1.0 - p : p;
  const std::uint64_t y = static_cast<double>(n) * r < 30.0
                              ? binomial_inversion(*this, n, r)
                              : binomial_btpe(*this, n, r);
  return flip ? n - y : y;
}

Rng Rng::split() noexcept {
  return Rng((*this)());
}

std::uint64_t Rng::derive_seed(std::uint64_t base, std::uint64_t salt,
                               std::uint64_t tag,
                               std::uint64_t index) noexcept {
  std::uint64_t x = base ^ salt ^ tag;
  x = splitmix64(x) + index;
  return splitmix64(x);
}

}  // namespace dqcsim
