#include "util/rng.h"

#include <cmath>
#include <stdexcept>

namespace atlas::util {
namespace {

inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t SplitMix64::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : state_) s = sm.Next();
  // xoshiro state must not be all-zero; SplitMix64 cannot produce four zero
  // outputs in a row, but guard anyway for belt and braces.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("NextBounded: bound must be > 0");
  // Lemire's method with rejection to remove modulo bias.
  std::uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    std::uint64_t t = -bound % bound;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::NextRange(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(NextGaussian(mu, sigma));
}

double Rng::NextPareto(double x_m, double alpha) {
  if (x_m <= 0.0 || alpha <= 0.0) {
    throw std::invalid_argument("NextPareto: x_m and alpha must be > 0");
  }
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  return x_m / std::pow(u, 1.0 / alpha);
}

std::uint64_t Rng::NextGeometric(double p) {
  if (p <= 0.0 || p > 1.0) {
    throw std::invalid_argument("NextGeometric: p must be in (0, 1]");
  }
  if (p == 1.0) return 0;
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

std::size_t Rng::NextWeighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("NextWeighted: negative weight");
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("NextWeighted: weights must sum to > 0");
  }
  double target = NextDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numerical tail
}

}  // namespace atlas::util
