// Deterministic random number generation for the synthetic substrate.
//
// Everything stochastic in this repository (traffic generation, the web
// universe, workload sweeps) flows through this RNG so that every
// experiment is exactly reproducible from a seed. xoshiro256** is used for
// the stream and splitmix64 for seeding, following the reference designs
// by Blackman & Vigna.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace nbv6::stats {

/// splitmix64: used to expand a single 64-bit seed into stream state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x6e6276365f763621ull) {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() {
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

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) {
    // Lemire's multiply-shift rejection-free-enough reduction; bias is
    // negligible for the ranges used here.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>((*this)()) * n) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// true with probability p.
  bool chance(double p) { return uniform() < p; }

  /// Standard normal via Box-Muller (cached pair not kept: simplicity).
  double normal() {
    double u1 = uniform();
    while (u1 <= 1e-300) u1 = uniform();
    double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
  }

  double normal(double mean, double sd) { return mean + sd * normal(); }

  /// Exponential with the given mean.
  double exponential(double mean) {
    double u = uniform();
    while (u <= 1e-300) u = uniform();
    return -mean * std::log(u);
  }

  /// Pareto (Lomax-style, xm scale, alpha shape) — used for heavy-tailed
  /// flow sizes (downloads, streams).
  double pareto(double xm, double alpha) {
    double u = uniform();
    while (u <= 1e-300) u = uniform();
    return xm / std::pow(u, 1.0 / alpha);
  }

  /// Log-normal with parameters of the underlying normal.
  double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
};

/// Sampling from a fixed discrete distribution by cumulative weights.
/// Construction is O(n); each sample is O(log n).
class DiscreteSampler {
 public:
  explicit DiscreteSampler(std::span<const double> weights);

  /// Index in [0, size) drawn proportionally to the weights.
  [[nodiscard]] size_t sample(Rng& rng) const;

  [[nodiscard]] size_t size() const { return cumulative_.size(); }

 private:
  std::vector<double> cumulative_;
};

}  // namespace nbv6::stats
