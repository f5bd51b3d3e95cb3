// Open-loop arrival engine: determinism, distributional correctness, and
// firehose emission invariants.
//
// The contract under test is the one the golden suite pins indirectly:
// every arrival draw is a pure function of (seed, residence index, day,
// tick), batch mode is bit-identical to the pre-open-loop generator, and
// the firehose's canonical tick-major emission order is independent of
// lane count.
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "engine/firehose.h"
#include "engine/fleet.h"
#include "stats/rng.h"
#include "testutil.h"
#include "traffic/arrival.h"
#include "traffic/generator.h"
#include "traffic/service_catalog.h"

namespace nbv6 {
namespace {

using testutil::canonical_serialize;
using testutil::first_diff;
using testutil::run_scenario;
using traffic::ArrivalMode;

TEST(ArrivalMode_, NamesRoundTrip) {
  for (ArrivalMode m :
       {ArrivalMode::batch, ArrivalMode::poisson, ArrivalMode::uniform}) {
    ArrivalMode parsed = ArrivalMode::batch;
    EXPECT_TRUE(traffic::parse_arrival_mode(traffic::to_string(m), parsed))
        << traffic::to_string(m);
    EXPECT_EQ(parsed, m);
  }
  ArrivalMode out = ArrivalMode::batch;
  EXPECT_FALSE(traffic::parse_arrival_mode("open_loop", out));
  EXPECT_FALSE(traffic::parse_arrival_mode("", out));
  EXPECT_FALSE(traffic::parse_arrival_mode("Poisson", out));
}

TEST(ArrivalStream, IsPureInSeedDayAndTick) {
  // Same coordinates → the same stream, draw for draw. Any neighbouring
  // coordinate → a different stream (the draws decorrelate immediately).
  auto draws = [](std::uint64_t seed, int day, int tick) {
    stats::Rng rng = traffic::arrival_tick_rng(seed, day, tick);
    std::vector<std::uint64_t> v;
    for (int i = 0; i < 8; ++i) v.push_back(rng());
    return v;
  };
  const auto base = draws(42, 3, 1234);
  EXPECT_EQ(base, draws(42, 3, 1234));
  EXPECT_NE(base, draws(43, 3, 1234));
  EXPECT_NE(base, draws(42, 4, 1234));
  EXPECT_NE(base, draws(42, 3, 1235));
  EXPECT_NE(base, draws(42, 3, 1233));
}

TEST(ArrivalDraws, PoissonMatchesItsMoments) {
  // Mean within 4 sigma of lambda, variance within 10% — loose enough to
  // be seed-robust, tight enough to catch an off-by-one-region bug. The
  // 250 case exercises the chunked (lambda > 30) path.
  for (double lambda : {0.5, 5.0, 24.0, 250.0}) {
    SCOPED_TRACE(lambda);
    stats::Rng rng(7);
    const int n = 20000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
      double c = traffic::poisson_count(rng, lambda);
      sum += c;
      sum_sq += c * c;
    }
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, lambda, 4.0 * std::sqrt(lambda / n));
    EXPECT_NEAR(var, lambda, 0.10 * lambda);
  }
}

TEST(ArrivalDraws, UniformRenewalIsSubPoissonWithExactMean) {
  stats::Rng rng(11);
  const int n = 20000;
  const double lambda = 8.0;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double c = traffic::uniform_count(rng, lambda);
    sum += c;
    sum_sq += c * c;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, lambda, 4.0 * std::sqrt(lambda / n));
  // U(0, 2/lambda) gaps have CoV^2 = 1/3, so the count variance sits well
  // below the Poisson var = mean line — the point of offering the mode.
  EXPECT_LT(var, 0.6 * lambda);
}

TEST(ArrivalDraws, UniformRenewalSurvivesPerTickRestarts) {
  // The per-tick restart is the dangerous part of a renewal process: a
  // naive "first gap ~ U(0, 2/lambda)" restart inflates small-rate means
  // badly (most ticks would re-draw a short first gap). The equilibrium
  // first-gap draw keeps E[count] = lambda even at per-tick lambda << 1.
  for (double lambda : {0.25, 1.0, 3.0}) {
    SCOPED_TRACE(lambda);
    double total = 0.0;
    const int ticks = 40000;
    for (int t = 0; t < ticks; ++t) {
      stats::Rng rng = traffic::arrival_tick_rng(99, t / 1440, t % 1440);
      total += traffic::uniform_count(rng, lambda);
    }
    const double mean = total / ticks;
    EXPECT_NEAR(mean, lambda, 4.0 * std::sqrt(lambda / ticks));
  }
}

TEST(ArrivalDraws, RunawayRatesAreClamped) {
  stats::Rng rng(5);
  const int c = traffic::draw_arrivals(ArrivalMode::poisson, rng, 1e18);
  EXPECT_GT(c, 0.97 * traffic::kMaxTickLambda);
  EXPECT_LT(c, 1.03 * traffic::kMaxTickLambda);
}

TEST(ArrivalEngine, BatchHoursClampRunawayRates) {
  // activity_scale has no parse ceiling, so a batch hour must clamp its
  // rate like an open-loop tick. Unclamped, this one day draws about
  // 1e12 / 30 Knuth chunks per hour and never finishes.
  const auto catalog = traffic::build_paper_catalog();
  traffic::ResidenceConfig cfg = traffic::paper_residences()[0];
  cfg.days = 1;
  cfg.activity_scale = 1e12;
  cfg.arrival.mode = ArrivalMode::batch;
  cfg.day_plan_fn = [](int) {
    traffic::DayPlan p;
    p.outage = true;  // suppressed sessions are counted, never simulated
    return p;
  };
  engine::FlowEventBuffer table;
  traffic::ResidenceSimulator sim(catalog, cfg);
  const auto stats = sim.run(table);
  EXPECT_EQ(stats.sessions, 0u);
  EXPECT_GE(stats.outage_suppressed, 0.97 * traffic::kMaxTickLambda);
  // At most the clamp per hour, plus slack for Poisson noise and the
  // background chatter's ~1.2 sessions an hour.
  EXPECT_LE(stats.outage_suppressed, 24 * 1.03 * traffic::kMaxTickLambda);
}

TEST(ArrivalEngine, BatchModeIsBitIdenticalToTheDefaultPath) {
  // An explicit `arrival.mode = batch` — whatever the tick granularity
  // says — must replay byte-for-byte like a config that never mentions
  // arrivals at all: batch mode *is* the original per-hour generator.
  auto catalog = traffic::build_paper_catalog();
  engine::FleetConfig cfg;
  cfg.residences = 8;
  cfg.days = 6;
  cfg.seed = 77;
  const std::string def = canonical_serialize(run_scenario(cfg, catalog, 2));

  engine::FleetConfig explicit_batch = cfg;
  explicit_batch.arrival->mode = ArrivalMode::batch;
  explicit_batch.arrival->ticks_per_hour = 7;  // ignored in batch mode
  const std::string batch =
      canonical_serialize(run_scenario(explicit_batch, catalog, 2));
  EXPECT_EQ(batch, def) << first_diff(batch, def);
}

TEST(ArrivalEngine, OpenLoopRunsAreLaneInvariant) {
  auto catalog = traffic::build_paper_catalog();
  for (ArrivalMode mode : {ArrivalMode::poisson, ArrivalMode::uniform}) {
    SCOPED_TRACE(traffic::to_string(mode));
    engine::FleetConfig cfg;
    cfg.residences = 10;
    cfg.days = 5;
    cfg.seed = 123;
    cfg.arrival->mode = mode;
    cfg.arrival->ticks_per_hour = 7;  // does not divide 3600: worst case
    const std::string base = canonical_serialize(run_scenario(cfg, catalog, 1));
    for (int lanes : {4, 8}) {
      const std::string other =
          canonical_serialize(run_scenario(cfg, catalog, lanes));
      EXPECT_EQ(other, base) << lanes << " lanes diverged:\n"
                             << first_diff(other, base);
    }
  }
}

// One firehose run reduced to comparable facts: flow count, an
// order-sensitive checksum over every emitted field, and a flag that the
// canonical (day, tick, residence) emission order was non-decreasing.
struct FirehoseDigest {
  std::uint64_t flows = 0;
  std::uint64_t fnv = 1469598103934665603ull;
  bool ordered = true;
  std::uint64_t sessions = 0;
};

FirehoseDigest digest_run(const engine::FleetConfig& cfg, int threads) {
  auto catalog = traffic::build_paper_catalog();
  engine::Firehose hose(catalog, threads);
  FirehoseDigest d;
  std::tuple<int, int, std::uint32_t> prev{-1, -1, 0};
  auto mix = [&d](std::uint64_t v) {
    d.fnv = (d.fnv ^ v) * 1099511628211ull;
  };
  auto result = hose.run(cfg, [&](const engine::FlowEvent& ev) {
    ++d.flows;
    std::tuple<int, int, std::uint32_t> cur{ev.day, ev.tick, ev.residence};
    if (cur < prev) d.ordered = false;
    prev = cur;
    mix(ev.residence);
    mix(static_cast<std::uint64_t>(ev.day));
    mix(static_cast<std::uint64_t>(ev.tick));
    mix(static_cast<std::uint64_t>(ev.start));
    mix(static_cast<std::uint64_t>(ev.end));
    mix(ev.bytes_out);
    mix(ev.bytes_in);
    mix(static_cast<std::uint64_t>(ev.scope));
    mix(static_cast<std::uint64_t>(ev.key.src_port) << 16 | ev.key.dst_port);
    if (ev.key.dst.is_v4()) {
      mix(ev.key.dst.v4().value());
    } else {
      mix(ev.key.dst.v6().high64());
      mix(ev.key.dst.v6().low64());
    }
  });
  EXPECT_EQ(result.flows, d.flows);
  d.sessions = result.totals.sessions;
  return d;
}

TEST(Firehose, EmissionIsCanonicalAndLaneInvariant) {
  engine::FleetConfig cfg;
  cfg.residences = 10;
  cfg.days = 4;
  cfg.seed = 9;
  cfg.arrival->mode = ArrivalMode::poisson;
  cfg.arrival->ticks_per_hour = 6;

  const FirehoseDigest base = digest_run(cfg, 1);
  EXPECT_GT(base.flows, 0u);
  EXPECT_TRUE(base.ordered);
  for (int threads : {4, 8}) {
    SCOPED_TRACE(threads);
    const FirehoseDigest other = digest_run(cfg, threads);
    EXPECT_TRUE(other.ordered);
    EXPECT_EQ(other.flows, base.flows);
    EXPECT_EQ(other.fnv, base.fnv);
    EXPECT_EQ(other.sessions, base.sessions);
  }
}

TEST(Firehose, BatchModeStreamsTheSameFleetTotalsAsTheEngine) {
  // The firehose in batch mode replays the exact per-hour generator, so
  // its stats must agree with a batch simulate_fleet of the same config.
  engine::FleetConfig cfg;
  cfg.residences = 8;
  cfg.days = 5;
  cfg.seed = 31;

  auto catalog = traffic::build_paper_catalog();
  engine::ThreadPool pool(1);
  const auto expected = testutil::simulate_scenario(cfg, catalog, &pool);

  const FirehoseDigest d = digest_run(cfg, 2);
  EXPECT_EQ(d.sessions, expected.totals.sessions);
  EXPECT_EQ(d.flows, expected.totals.flows);
}

TEST(Firehose, FlashCrowdConcentratesEmissionInItsHours) {
  // Identical configs, with and without a flash crowd in hours 20-21:
  // the crowd's hour slots must carry several times more arrivals while
  // the rest of the day stays on the base schedule.
  engine::FleetConfig cfg;
  cfg.residences = 12;
  cfg.days = 6;
  cfg.seed = 55;
  cfg.arrival->mode = ArrivalMode::poisson;
  cfg.arrival->ticks_per_hour = 4;

  engine::FleetConfig crowd = cfg;
  {
    auto ev = engine::Timeline::parse_event(
        "flash_crowd", "start=0 end=5 frac=1 hour=20 hours=2 mult=8");
    ASSERT_TRUE(ev.has_value());
    crowd.timeline->events.push_back(*ev);
  }

  auto hour_counts = [](const engine::FleetConfig& c) {
    auto catalog = traffic::build_paper_catalog();
    engine::Firehose hose(catalog, 2);
    std::vector<std::uint64_t> hours(24, 0);
    hose.run(c, [&](const engine::FlowEvent& ev) {
      ++hours[static_cast<size_t>(ev.tick) / 4 % 24];
    });
    return hours;
  };
  const auto base = hour_counts(cfg);
  const auto surged = hour_counts(crowd);
  ASSERT_GT(base[20] + base[21], 0u);
  EXPECT_GT(surged[20] + surged[21], 4 * (base[20] + base[21]));
  // Off-burst hours are shaped only by presence; the crowd must not leak.
  EXPECT_LT(surged[10] + surged[11], 2 * (base[10] + base[11] + 8));
}

}  // namespace
}  // namespace nbv6
