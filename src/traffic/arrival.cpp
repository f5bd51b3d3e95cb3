#include "traffic/arrival.h"

#include <algorithm>
#include <cmath>

namespace nbv6::traffic {

const char* to_string(ArrivalMode m) {
  switch (m) {
    case ArrivalMode::batch: return "batch";
    case ArrivalMode::poisson: return "poisson";
    case ArrivalMode::uniform: return "uniform";
  }
  return "?";
}

bool parse_arrival_mode(std::string_view text, ArrivalMode& out) {
  if (text == "batch") out = ArrivalMode::batch;
  else if (text == "poisson") out = ArrivalMode::poisson;
  else if (text == "uniform") out = ArrivalMode::uniform;
  else return false;
  return true;
}

stats::Rng arrival_tick_rng(std::uint64_t seed, int day, int tick) {
  // Same derivation idiom as engine::sample_stage / draw_event: fold the
  // coordinates through distinct odd multipliers, then let splitmix64 (and
  // the Rng constructor's four further rounds) mix. +1 keeps coordinate 0
  // from vanishing.
  std::uint64_t state =
      seed ^ (0xBF58476D1CE4E5B9ull * (static_cast<std::uint64_t>(day) + 1)) ^
      (0x94D049BB133111EBull * (static_cast<std::uint64_t>(tick) + 1));
  return stats::Rng(stats::splitmix64(state));
}

namespace {

// Knuth's product method; callers keep lambda <= 30 so exp(-lambda) stays
// comfortably normal. This is byte-for-byte the original generator's draw.
int poisson_knuth(stats::Rng& rng, double lambda) {
  if (lambda <= 0) return 0;
  double l = std::exp(-lambda);
  int k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.uniform();
  } while (p > l);
  return k - 1;
}

constexpr double kKnuthLambdaMax = 30.0;

}  // namespace

int poisson_count(stats::Rng& rng, double lambda) {
  int total = 0;
  while (lambda > kKnuthLambdaMax) {
    total += poisson_knuth(rng, kKnuthLambdaMax);
    lambda -= kKnuthLambdaMax;
  }
  return total + poisson_knuth(rng, lambda);
}

int uniform_count(stats::Rng& rng, double lambda) {
  if (lambda <= 0.0) return 0;
  const double gap_max = 2.0 / lambda;  // gaps ~ U(0, gap_max), mean 1/lambda
  // Equilibrium first gap: the stationary residual of a U(0, b) renewal
  // process has CDF 1 - (1 - x/b)^2 on [0, b]; inverting gives
  // b * (1 - sqrt(1 - u)). Starting each tick from this distribution makes
  // the tick-sliced process exactly stationary, so E[count per tick] is
  // lambda despite the restart (a naive U(0, b) first gap would halve it
  // for small lambda).
  double at = gap_max * (1.0 - std::sqrt(1.0 - rng.uniform()));
  int n = 0;
  while (at < 1.0) {
    ++n;
    at += gap_max * rng.uniform();
  }
  return n;
}

int draw_arrivals(ArrivalMode mode, stats::Rng& rng, double lambda) {
  lambda = std::min(lambda, kMaxTickLambda);
  return mode == ArrivalMode::uniform ? uniform_count(rng, lambda)
                                      : poisson_count(rng, lambda);
}

}  // namespace nbv6::traffic
