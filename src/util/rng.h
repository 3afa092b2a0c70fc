// Deterministic, fast pseudo-random number generation for simulation.
//
// All randomness in ATLAS flows through util::Rng so that every trace, every
// workload, and every simulation run is reproducible from a single 64-bit
// seed. The generator is xoshiro256** (Blackman & Vigna), seeded through
// SplitMix64 as its authors recommend. It satisfies the C++ named requirement
// UniformRandomBitGenerator, so it composes with <random> distributions, but
// the common draws (uniform, exponential, normal, etc.) are provided as
// members to keep call sites terse and allocation-free.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace atlas::util {

// SplitMix64: used to expand a single 64-bit seed into generator state and to
// derive independent child seeds. Passes BigCrush when used as a generator in
// its own right; here it is a seeding utility.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next();

 private:
  std::uint64_t state_;
};

// xoshiro256**: the project-wide PRNG. 256 bits of state, period 2^256 - 1.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return Next(); }
  std::uint64_t Next();

  // Uniform real in [0, 1).
  double NextDouble();

  // Uniform integer in [0, bound) using Lemire's multiply-shift rejection
  // method (unbiased). bound must be > 0.
  std::uint64_t NextBounded(std::uint64_t bound);

  // Uniform real in [lo, hi).
  double NextRange(double lo, double hi);

  // Bernoulli trial with success probability p (clamped to [0, 1]).
  bool NextBool(double p);

  // Standard normal via Box-Muller (cached second variate).
  double NextGaussian();
  double NextGaussian(double mean, double stddev);

  // Lognormal: exp(N(mu, sigma)).
  double NextLogNormal(double mu, double sigma);

  // Pareto with scale x_m (> 0) and shape alpha (> 0).
  double NextPareto(double x_m, double alpha);

  // Geometric: number of failures before first success, p in (0, 1].
  std::uint64_t NextGeometric(double p);

  // Picks an index in [0, weights.size()) proportionally to weights.
  // Weights must be non-negative and sum to > 0. O(n); for hot paths use
  // stats::AliasTable instead.
  std::size_t NextWeighted(const std::vector<double>& weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextBounded(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Full generator state as plain data, for checkpoint/restore. A restored
  // generator continues the exact stream (including the cached Box-Muller
  // variate) from where the snapshot was taken. util sits below ckpt in the
  // layering, so this is a POD handoff rather than a Checkpointable.
  struct Snapshot {
    std::array<std::uint64_t, 4> state{};
    double cached_gaussian = 0.0;
    bool has_cached_gaussian = false;
  };
  Snapshot TakeSnapshot() const {
    return {state_, cached_gaussian_, has_cached_gaussian_};
  }
  void RestoreSnapshot(const Snapshot& s) {
    state_ = s.state;
    cached_gaussian_ = s.cached_gaussian;
    has_cached_gaussian_ = s.has_cached_gaussian;
  }

 private:
  std::array<std::uint64_t, 4> state_;
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace atlas::util
