// Open-loop arrival processes: how sessions land inside a simulated day.
//
// The original generator synthesizes each hour's sessions as one batch
// Poisson count — fine for per-day aggregates, but it cannot express
// intra-day dynamics (flash crowds, sub-hour bursts, correlated
// cross-residence surges), and it ties throughput to "days simulated"
// instead of "flows/sec". This module supplies the arrival layer for the
// time-sliced event loop: an hour is cut into `ticks_per_hour` slots and
// each tick drains an independent, counter-based arrival draw.
//
// Determinism is the contract. Every per-tick draw comes from a fresh
// stats::Rng derived from (residence seed, day, tick) — the residence
// seed itself is a pure function of (scenario seed, residence index) —
// so arrivals are a pure function of (seed, index, day, tick): no
// std::random_device, no shared-state RNG, no dependence on lane count,
// tick evaluation order, or how many other residences exist. That is the
// invariant the golden-replay and lane-parity suites pin.
//
// Modes:
//   batch    — the pre-existing per-hour batch semantics, bit-identical
//              to the original generator (the 12 committed goldens).
//   poisson  — exact open-loop Poisson process: the per-tick count is
//              Poisson(lambda_hour / ticks_per_hour), which *is* the
//              Poisson process restricted to the tick (memorylessness
//              makes the per-tick restart exact).
//   uniform  — renewal process with U(0, 2/lambda) inter-arrival gaps
//              (memtier_skewsyn's uniform generator). The first gap of
//              each tick is drawn from the equilibrium (stationary
//              residual) distribution so the per-tick restart keeps
//              E[count] = lambda exactly; variance is sub-Poisson.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "stats/rng.h"

namespace nbv6::traffic {

enum class ArrivalMode {
  batch,    ///< per-hour batch counts (the original generator, golden-pinned)
  poisson,  ///< open-loop Poisson inter-arrival
  uniform,  ///< open-loop uniform inter-arrival (equilibrium-started renewal)
};

const char* to_string(ArrivalMode m);
/// "batch" / "poisson" / "uniform"; false on anything else.
bool parse_arrival_mode(std::string_view text, ArrivalMode& out);

/// The scenario-level arrival knobs (FleetConfig `arrival.*` keys), copied
/// onto every sampled ResidenceConfig.
struct ArrivalConfig {
  ArrivalMode mode = ArrivalMode::batch;
  /// Tick granularity of the open-loop event loop, in [1, 3600]. Need not
  /// divide 3600: tick k of an hour spans [k*3600/tph, (k+1)*3600/tph)
  /// with integer-truncated boundaries, so the slots tile the hour exactly.
  int ticks_per_hour = 60;

  /// Time slots per simulated hour: 1 in batch mode (the hour is the
  /// slot), else ticks_per_hour clamped to [1, 3600].
  [[nodiscard]] int slots_per_hour() const {
    return mode == ArrivalMode::batch ? 1
                                      : std::clamp(ticks_per_hour, 1, 3600);
  }

  friend bool operator==(const ArrivalConfig&, const ArrivalConfig&) = default;
};

/// The per-(residence, day, tick) arrival stream. `seed` is the residence's
/// own seed (already a pure function of scenario seed and index), so the
/// returned generator — and every count drawn from it — is a pure function
/// of (scenario seed, residence index, day, tick).
stats::Rng arrival_tick_rng(std::uint64_t seed, int day, int tick);

/// Poisson(lambda) count. Knuth's product method below lambda = 30, chunked
/// into sub-draws above it (a sum of independent Poissons is Poisson), so
/// large modulated lambdas neither underflow exp(-lambda) nor loop long.
/// Identical to the original generator's draw for lambda <= 30 — every
/// batch-mode scenario stays inside that range, keeping goldens bit-exact.
int poisson_count(stats::Rng& rng, double lambda);

/// Count of uniform-renewal arrivals in one unit interval with mean rate
/// `lambda`: gaps ~ U(0, 2/lambda), first gap from the equilibrium
/// distribution (density proportional to the residual, sampled as
/// (2/lambda) * (1 - sqrt(1 - u))) so E[count] = lambda exactly despite the
/// per-tick restart.
int uniform_count(stats::Rng& rng, double lambda);

/// One slot's arrival count: a uniform-renewal count in uniform mode, a
/// Poisson count otherwise (batch mode draws its per-hour counts here
/// too). `lambda` is the expected count for this slot. Rates are clamped
/// to kMaxTickLambda first: a denial-of-service guard against configs with
/// absurd activity scales, which the scenario grammar accepts (it bounds
/// activity_scale_max only from below).
int draw_arrivals(ArrivalMode mode, stats::Rng& rng, double lambda);

/// See draw_arrivals.
inline constexpr double kMaxTickLambda = 1e5;

}  // namespace nbv6::traffic
