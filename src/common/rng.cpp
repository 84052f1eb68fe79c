#include "common/rng.hpp"

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

std::uint64_t Rng::uniform_int(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless bounded generation with rejection.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    const __uint128_t m = static_cast<__uint128_t>(r) * n;
    if (static_cast<std::uint64_t>(m) >= threshold) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
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

Rng Rng::split() noexcept {
  return Rng((*this)());
}

}  // namespace dqcsim
