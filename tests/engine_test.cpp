// Fleet-stage tests: thread-pool behaviour, scenario sampling
// determinism, monitor merge algebra, and the headline guarantee — a
// multi-lane simulate_fleet is bit-identical to the sequential run of the
// same residence seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/client_analysis.h"
#include "core/fleet_analysis.h"
#include "engine/firehose.h"
#include "engine/fleet.h"
#include "engine/flat_conntrack.h"
#include "engine/pipeline.h"
#include "engine/run_spec.h"
#include "engine/thread_pool.h"
#include "flowmon/monitor.h"
#include "monitor_checks.h"
#include "reference_conntrack.h"
#include "testutil.h"
#include "traffic/generator.h"

namespace nbv6::engine {
namespace {

using testutil::expect_canonical;
using testutil::expect_same_aggregates;

// ---------------------------------------------------------- thread pool

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForHandlesDegenerateCounts) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(1, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(64, [&](size_t i) {
      sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
  }
}

TEST(ThreadPool, ParallelForRethrowsLaneExceptionsOnTheCaller) {
  ThreadPool pool(4);
  // A throw from any lane — worker or caller — must surface on the caller
  // after the batch drains, and the pool must stay usable.
  std::atomic<int> ran{0};
  auto throwing = [&](size_t i) {
    if (i == 37) throw std::runtime_error("lane 37 exploded");
    ran.fetch_add(1);
  };
  EXPECT_THROW(pool.parallel_for(100, throwing), std::runtime_error);
  // Ticket hand-out stops on the throw, so not every index runs — but none
  // runs twice, and the count is sane.
  EXPECT_LE(ran.load(), 99);

  // Index 0 throws: with two lanes, the caller often observes a
  // worker-thrown exception (pre-fix this terminated the process).
  for (int round = 0; round < 8; ++round) {
    EXPECT_THROW(
        pool.parallel_for(64,
                          [](size_t i) {
                            if (i == 0) throw std::runtime_error("first");
                          }),
        std::runtime_error);
  }

  // The pool is fully reusable after exceptional batches.
  std::atomic<int> sum{0};
  pool.parallel_for(64, [&](size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

TEST(ThreadPool, RejectsOutOfRangeWorkerCountsBeforeStartingThreads) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
  EXPECT_THROW(ThreadPool(-4), std::invalid_argument);
  EXPECT_THROW(ThreadPool(kMaxLanes + 1), std::invalid_argument);
  EXPECT_THROW(ThreadPool(100000), std::invalid_argument);
}

TEST(ResolveLanes, RejectsNegativeAndAboveTheBound) {
  EXPECT_FALSE(resolve_lanes(-1).has_value());
  EXPECT_FALSE(resolve_lanes(kMaxLanes + 1).has_value());
  EXPECT_FALSE(resolve_lanes(100000).has_value());
  // Resolving constructs nothing, so the accepted edges are checked by
  // value only.
  EXPECT_EQ(resolve_lanes(3), 3);
  EXPECT_EQ(resolve_lanes(kMaxLanes), kMaxLanes);
  const auto hw = resolve_lanes(0);
  ASSERT_TRUE(hw.has_value());
  EXPECT_GE(*hw, 1);
  EXPECT_LE(*hw, kMaxLanes);
}

TEST(ResolveLanes, FirehoseRejectsOutOfRangeLaneCounts) {
  auto catalog = traffic::build_paper_catalog();
  EXPECT_THROW(Firehose(catalog, -1), std::invalid_argument);
  EXPECT_THROW(Firehose(catalog, kMaxLanes + 1), std::invalid_argument);
}

// ------------------------------------------------------ scenario layer

TEST(FleetConfigParse, RoundTripsKnownKeys) {
  auto cfg = FleetConfig::parse(
      "# a comment\n"
      "residences = 16\n"
      "days=7\n"
      "seed = 99\n"
      "dual_stack_isp_frac = 0.5  # inline comment\n"
      "heavy_streamer_frac = 0.75\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->residences, 16);
  EXPECT_EQ(cfg->days, 7);
  EXPECT_EQ(cfg->seed, 99u);
  EXPECT_DOUBLE_EQ(cfg->dual_stack_isp_frac, 0.5);
  EXPECT_DOUBLE_EQ(cfg->heavy_streamer_frac, 0.75);
  // Untouched keys keep defaults.
  EXPECT_DOUBLE_EQ(cfg->opt_out_frac, FleetConfig{}.opt_out_frac);
}

TEST(FleetConfigParse, RejectsUnknownKeysAndBadValues) {
  EXPECT_FALSE(FleetConfig::parse("no_such_knob = 1\n").has_value());
  EXPECT_FALSE(FleetConfig::parse("days = banana\n").has_value());
  EXPECT_FALSE(FleetConfig::parse("residences = 0\n").has_value());
  EXPECT_FALSE(FleetConfig::parse("just a line\n").has_value());
  // Lane count is a run setting, not a scenario key.
  EXPECT_FALSE(FleetConfig::parse("threads = 2\n").has_value());
}

TEST(FleetConfigParse, RejectsOutOfRangeAndNonFiniteValues) {
  // Fractions are probabilities: outside [0, 1] is a config bug, not a
  // clamp candidate.
  EXPECT_FALSE(FleetConfig::parse("dual_stack_isp_frac = 1.5\n").has_value());
  EXPECT_FALSE(FleetConfig::parse("broken_v6_frac = -0.1\n").has_value());
  EXPECT_FALSE(FleetConfig::parse("opt_out_frac = 2\n").has_value());
  // strtod parses these happily; the validator must not.
  EXPECT_FALSE(FleetConfig::parse("absence_prob = nan\n").has_value());
  EXPECT_FALSE(FleetConfig::parse("heavy_streamer_frac = inf\n").has_value());
  EXPECT_FALSE(FleetConfig::parse("activity_scale_max = -inf\n").has_value());
  EXPECT_FALSE(FleetConfig::parse("activity_scale_min = -1\n").has_value());
  // Inverted activity range.
  EXPECT_FALSE(FleetConfig::parse("activity_scale_min = 5\n"
                                  "activity_scale_max = 2\n").has_value());
  // Boundary values are fine.
  auto ok = FleetConfig::parse("dual_stack_isp_frac = 0\n"
                               "opt_out_frac = 1\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_DOUBLE_EQ(ok->dual_stack_isp_frac, 0.0);
  EXPECT_DOUBLE_EQ(ok->opt_out_frac, 1.0);
}

TEST(FleetConfigParse, RejectsDuplicateScalarKeys) {
  EXPECT_FALSE(FleetConfig::parse("days = 7\ndays = 8\n").has_value());
  EXPECT_FALSE(
      FleetConfig::parse("seed = 1\nresidences = 4\nseed = 2\n").has_value());
  // Timeline event keys are the documented exception: repeatable.
  auto cfg = FleetConfig::parse(
      "timeline.outage = day=3\n"
      "timeline.outage = day=5\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->timeline->events.size(), 2u);
}

TEST(FleetConfigParse, RoundTripsTimelineKeys) {
  // A config carrying every event kind parses into the equivalent
  // hand-built timeline (the round-trip the golden scenarios rely on).
  auto cfg = FleetConfig::parse(
      "residences = 8\n"
      "days = 40\n"
      "timeline.seasonal = start=0 end=39 amp=0.35 period=21\n"
      "timeline.rollout_wave = start=10 end=28 frac=0.7\n"
      "timeline.cpe_fix = start=20 end=26 frac=0.8\n"
      "timeline.outage = start=22 end=24 frac=0.4\n"
      "timeline.nat64_migration = start=30 end=39 frac=0.35\n");
  ASSERT_TRUE(cfg.has_value());

  Timeline expected;
  expected.events = {
      *Timeline::parse_event("seasonal", "start=0 end=39 amp=0.35 period=21"),
      *Timeline::parse_event("rollout_wave", "start=10 end=28 frac=0.7"),
      *Timeline::parse_event("cpe_fix", "start=20 end=26 frac=0.8"),
      *Timeline::parse_event("outage", "start=22 end=24 frac=0.4"),
      *Timeline::parse_event("nat64_migration", "start=30 end=39 frac=0.35"),
  };
  EXPECT_EQ(cfg->timeline, expected);
}

TEST(FleetConfigParse, ErrorMessagesCarryLineAndToken) {
  auto msg = [](std::string_view text) {
    std::string error;
    EXPECT_FALSE(FleetConfig::parse(text, &error).has_value()) << text;
    return error;
  };
  EXPECT_EQ(msg("days = 7\nno_such_knob = 1\n"),
            "line 2: unknown key 'no_such_knob'");
  EXPECT_EQ(msg("days = banana\n"),
            "line 1: invalid value 'banana' for key 'days'");
  EXPECT_EQ(msg("days = 7\n\ndays = 8\n"), "line 3: duplicate key 'days'");
  EXPECT_EQ(msg("just a line\n"), "line 1: missing '=' in 'just a line'");
  // Timeline rejections carry the full key plus the event parser's message.
  EXPECT_EQ(msg("timeline.nope = day=1\n"),
            "line 1: timeline.nope: unknown timeline event kind 'nope'");
  EXPECT_EQ(msg("days = 9\ntimeline.outage = banana=3\n"),
            "line 2: timeline.outage: unknown event key 'banana'");
  // Horizon violations name the event's own line, wherever `days` sits.
  EXPECT_EQ(msg("timeline.outage = day=50\ndays = 30\n"),
            "line 1: timeline.outage: window starts on day 50, at or past "
            "the 30-day horizon");
  // Post-loop validation failures are line-less but still specific.
  EXPECT_EQ(msg("residences = 0\n"), "residences must be >= 1 (got 0)");
  EXPECT_EQ(msg("activity_scale_min = 5\nactivity_scale_max = 2\n"),
            "activity_scale_min exceeds activity_scale_max");
  // Success leaves the error buffer untouched.
  std::string error = "sentinel";
  EXPECT_TRUE(FleetConfig::parse("days = 7\n", &error).has_value());
  EXPECT_EQ(error, "sentinel");
}

// check() is parse()'s whole-config half, callable on a config built in
// code: the same rules and the same messages, minus the line prefix.
TEST(FleetConfigCheck, HoldsBuiltConfigsToParseRules) {
  FleetConfig cfg;
  EXPECT_FALSE(cfg.check().has_value());
  cfg.days = 30;
  TimelineEvent late;
  late.kind = TimelineEventKind::outage;
  late.start_day = 50;
  cfg.timeline->events.push_back(late);
  EXPECT_EQ(cfg.check(), "timeline.outage: window starts on day 50, at or "
                         "past the 30-day horizon");
  const int lines[] = {4};
  EXPECT_EQ(cfg.check(lines), "line 4: timeline.outage: window starts on "
                              "day 50, at or past the 30-day horizon");
  cfg.residences = -3;
  EXPECT_EQ(cfg.check(), "residences must be >= 1 (got -3)");
}

TEST(SampleStage, DeterministicPerSeedAndIndex) {
  auto catalog = traffic::build_paper_catalog();
  FleetConfig cfg;
  cfg.residences = 32;
  cfg.days = 30;

  auto a = sample_stage(cfg, catalog).configs;
  auto b = sample_stage(cfg, catalog).configs;
  ASSERT_EQ(a.size(), 32u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_DOUBLE_EQ(a[i].activity_scale, b[i].activity_scale);
    EXPECT_EQ(a[i].service_weight_overrides, b[i].service_weight_overrides);
    EXPECT_EQ(a[i].away_day_ranges, b[i].away_day_ranges);
  }

  // Residence i's config must not depend on the population size: growing
  // the fleet keeps the existing households stable.
  cfg.residences = 48;
  auto c = sample_stage(cfg, catalog).configs;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, c[i].seed);
    EXPECT_DOUBLE_EQ(a[i].device_v6_ok_frac, c[i].device_v6_ok_frac);
  }

  // Different master seeds produce different populations.
  cfg.residences = 32;
  cfg.seed = 777;
  auto d = sample_stage(cfg, catalog).configs;
  int diff = 0;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i].seed != d[i].seed) ++diff;
  EXPECT_GT(diff, 16);
}

TEST(SampleStage, TraitsDescribeTheirConfigs) {
  // The stratum labels are index-aligned with the configs and consistent
  // with the config each one describes.
  auto catalog = traffic::build_paper_catalog();
  FleetConfig cfg;
  cfg.residences = 64;
  cfg.days = 30;
  cfg.seed = 11;

  auto sampled = sample_stage(cfg, catalog);
  ASSERT_EQ(sampled.configs.size(), 64u);
  ASSERT_EQ(sampled.traits.size(), 64u);
  for (size_t i = 0; i < sampled.configs.size(); ++i) {
    const auto& t = sampled.traits[i];
    if (!t.dual_stack_isp) {
      EXPECT_DOUBLE_EQ(sampled.configs[i].device_v6_ok_frac, 0.0);
    }
    if (t.broken_v6) {
      EXPECT_TRUE(t.dual_stack_isp);
    }
    if (t.vacant) {
      EXPECT_DOUBLE_EQ(sampled.configs[i].activity_scale, 0.0);
    }
    EXPECT_EQ(t.opt_out, sampled.configs[i].visibility < 1.0);
    EXPECT_EQ(t.scripted_absence,
              !sampled.configs[i].away_day_ranges.empty());
  }
}

TEST(SimulateFleet, CarriesTraitsThrough) {
  auto catalog = traffic::build_paper_catalog();
  FleetConfig cfg;
  cfg.residences = 6;
  cfg.days = 1;
  auto sampled = sample_stage(cfg, catalog);

  ThreadPool pool(1);
  auto from_sampled = simulate_fleet(catalog, sampled, &pool);
  EXPECT_EQ(from_sampled.traits, sampled.traits);
  auto from_cfg = testutil::simulate_scenario(cfg, catalog, &pool);
  EXPECT_EQ(from_cfg.traits, sampled.traits);
  // Raw config vectors carry no strata.
  auto from_raw = simulate_fleet(catalog, sampled.configs, &pool);
  EXPECT_TRUE(from_raw.traits.empty());
}

TEST(SampleStage, PopulationMixKnobsShapeThePopulation) {
  auto catalog = traffic::build_paper_catalog();
  FleetConfig cfg;
  cfg.residences = 200;
  cfg.days = 10;
  cfg.dual_stack_isp_frac = 0.0;
  auto v4_only = sample_stage(cfg, catalog).configs;
  for (const auto& r : v4_only) EXPECT_DOUBLE_EQ(r.device_v6_ok_frac, 0.0);

  cfg.dual_stack_isp_frac = 1.0;
  cfg.broken_v6_frac = 0.0;
  auto all_v6 = sample_stage(cfg, catalog).configs;
  for (const auto& r : all_v6) EXPECT_DOUBLE_EQ(r.device_v6_ok_frac, 1.0);

  cfg.background_only_frac = 1.0;
  auto vacant = sample_stage(cfg, catalog).configs;
  for (const auto& r : vacant) EXPECT_DOUBLE_EQ(r.activity_scale, 0.0);
}

// ------------------------------------------------------- merge algebra

flowmon::FlowMonitor run_residence(const traffic::ServiceCatalog& catalog,
                                   traffic::ResidenceConfig cfg) {
  FlatConntrack table;
  flowmon::FlowMonitor mon;
  mon.attach(table);
  traffic::ResidenceSimulator sim(catalog, cfg);
  sim.run(table);
  return mon;
}

TEST(MonitorMerge, AssociativeAndOrderIndependent) {
  auto catalog = traffic::build_paper_catalog();
  FleetConfig fc;
  fc.residences = 3;
  fc.days = 3;
  auto configs = sample_stage(fc, catalog).configs;
  auto m0 = run_residence(catalog, configs[0]);
  auto m1 = run_residence(catalog, configs[1]);
  auto m2 = run_residence(catalog, configs[2]);

  // (m0 + m1) + m2
  flowmon::FlowMonitor left;
  left.merge(m0);
  left.merge(m1);
  left.merge(m2);
  // m0 + (m1 + m2)
  flowmon::FlowMonitor inner;
  inner.merge(m1);
  inner.merge(m2);
  flowmon::FlowMonitor right;
  right.merge(m0);
  right.merge(inner);
  expect_same_aggregates(left, right);

  // Counter state is also commutative: reversed order, same aggregates.
  flowmon::FlowMonitor rev;
  rev.merge(m2);
  rev.merge(m1);
  rev.merge(m0);
  expect_same_aggregates(left, rev);
}

TEST(MonitorMerge, MergingEmptyIsIdentity) {
  auto catalog = traffic::build_paper_catalog();
  FleetConfig fc;
  fc.residences = 1;
  fc.days = 2;
  auto configs = sample_stage(fc, catalog).configs;
  auto m = run_residence(catalog, configs[0]);

  flowmon::FlowMonitor merged;
  merged.merge(m);
  merged.merge(flowmon::FlowMonitor{});
  expect_same_aggregates(merged, m);

  // Empty on either side, and empty into empty.
  flowmon::FlowMonitor copy = m;
  copy.merge(flowmon::FlowMonitor{});
  expect_same_aggregates(copy, m);
  flowmon::FlowMonitor empty;
  empty.merge(flowmon::FlowMonitor{});
  expect_same_aggregates(empty, flowmon::FlowMonitor{});
  EXPECT_TRUE(empty.hourly_external().empty());
  EXPECT_TRUE(empty.destination_tallies().empty());
}

TEST(MonitorMerge, SelfMergeDoublesEveryAggregate) {
  using flowmon::Scope;
  auto catalog = traffic::build_paper_catalog();
  FleetConfig fc;
  fc.residences = 1;
  fc.days = 3;
  auto configs = sample_stage(fc, catalog).configs;
  const auto m = run_residence(catalog, configs[0]);
  ASSERT_GT(m.destination_tallies().size(), 16u);  // past the first rehash

  flowmon::FlowMonitor self = m;
  self.merge(self);
  flowmon::FlowMonitor twice;
  twice.merge(m);
  twice.merge(m);
  expect_same_aggregates(self, twice);

  // Also against `m` directly, not only through merge: totals, every
  // destination tally and the event counts double.
  EXPECT_EQ(self.totals(Scope::external).total_bytes(),
            2 * m.totals(Scope::external).total_bytes());
  const auto once = m.destination_tallies();
  const auto dests = self.destination_tallies();
  ASSERT_EQ(dests.size(), once.size());
  for (size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(dests[i].addr, once[i].addr);
    EXPECT_EQ(dests[i].tally.bytes, 2 * once[i].tally.bytes);
    EXPECT_EQ(dests[i].tally.flows, 2 * once[i].tally.flows);
  }
  EXPECT_EQ(self.new_events(), 2 * m.new_events());
  EXPECT_EQ(self.destroy_events(), 2 * m.destroy_events());
}

// One closed flow at `start` into `table`.
void feed(FlatConntrack& table, std::uint8_t host, flowmon::Timestamp start,
          flowmon::Scope scope) {
  net::FlowKey k;
  k.src = net::IPv4Addr(192, 168, 1, host);
  k.dst = net::IPv4Addr(20, 0, 0, host);
  k.src_port = static_cast<std::uint16_t>(1000 + host);
  k.dst_port = 443;
  table.open(k, start, scope);
  table.account(k, start, 100, 900, 0, 0, scope);
  table.close(k, start + 1);
}

TEST(MonitorMerge, SeriesStayCanonicalThroughIngestAndMerge) {
  using flowmon::kSecondsPerDay;
  using flowmon::Scope;
  // `late` has traffic on day 5 only, `early` on day 1 only, so each merge
  // direction grows one side's series across gap cells.
  FlatConntrack late_table;
  flowmon::FlowMonitor late;
  late.attach(late_table);
  feed(late_table, 1, 5 * kSecondsPerDay + 7, Scope::external);
  feed(late_table, 2, 5 * kSecondsPerDay + 9, Scope::internal);
  FlatConntrack early_table;
  flowmon::FlowMonitor early;
  early.attach(early_table);
  feed(early_table, 3, 1 * kSecondsPerDay, Scope::external);
  feed(early_table, 4, 1 * kSecondsPerDay, Scope::internal);
  expect_canonical(late);
  expect_canonical(early);
  EXPECT_EQ(late.daily(Scope::external).size(), 6u);
  EXPECT_EQ(late.hourly_external().size(), 5u * 24 + 1);
  EXPECT_EQ(early.daily(Scope::internal).size(), 2u);

  flowmon::FlowMonitor a = late;
  a.merge(early);
  flowmon::FlowMonitor b = early;
  b.merge(late);
  expect_same_aggregates(a, b);
  EXPECT_EQ(a.daily(Scope::external).size(), 6u);
  EXPECT_EQ(a.daily(Scope::external)[1].total_flows(), 1u);
  EXPECT_EQ(a.daily(Scope::external)[3], flowmon::FamilySplit{});
  EXPECT_EQ(a.daily_v6_fractions(Scope::external, true).size(), 2u);

  // Ingest after a merge keeps the form too: a flow on a day past the end
  // grows the series; one inside it does not.
  feed(early_table, 5, 8 * kSecondsPerDay, Scope::external);
  feed(early_table, 6, 0, Scope::external);
  expect_canonical(early);
  EXPECT_EQ(early.daily(Scope::external).size(), 9u);
  EXPECT_EQ(early.daily(Scope::external)[0].total_flows(), 1u);
}

// -------------------------------------------------- fleet determinism

bool same_stats(const traffic::SimulationStats& a,
                const traffic::SimulationStats& b) {
  return a.sessions == b.sessions && a.flows == b.flows &&
         a.skipped_invisible == b.skipped_invisible &&
         a.he_failures == b.he_failures &&
         a.outage_suppressed == b.outage_suppressed &&
         a.service_outage_failed == b.service_outage_failed &&
         a.cgn_failures == b.cgn_failures && a.daily == b.daily;
}

// `lean` is the ShardTallies::lean run of `full`'s residences: the same
// fleet view, per-residence stats, totals, daily series and events, and no
// per-residence hourly or destination tallies (those live only in the
// fleet view).
void expect_lean_copy_of(const FleetResult& full, const FleetResult& lean) {
  using flowmon::Scope;
  expect_same_aggregates(full.fleet, lean.fleet);
  EXPECT_TRUE(same_stats(full.totals, lean.totals));
  ASSERT_EQ(full.residences.size(), lean.residences.size());
  for (size_t i = 0; i < full.residences.size(); ++i) {
    SCOPED_TRACE(i);
    const auto& home = full.residences[i];
    const auto& shard = lean.residences[i];
    EXPECT_TRUE(same_stats(home.stats, shard.stats));
    for (auto scope : {Scope::external, Scope::internal}) {
      EXPECT_EQ(home.monitor.totals(scope), shard.monitor.totals(scope));
      EXPECT_EQ(home.monitor.daily(scope), shard.monitor.daily(scope));
    }
    EXPECT_EQ(home.monitor.new_events(), shard.monitor.new_events());
    EXPECT_EQ(home.monitor.destroy_events(), shard.monitor.destroy_events());
    EXPECT_TRUE(shard.monitor.hourly_external().empty());
    EXPECT_TRUE(shard.monitor.destination_tallies().empty());
  }
}

// The acceptance bar: a 4-lane fleet run of 64 residences produces
// aggregates bit-identical to the sequential run of the same seeds, and so
// do lean runs (ShardTallies::lean) at 1, 4 and 8 lanes.
TEST(SimulateFleet, FourLaneRunMatchesSequentialBitForBit) {
  auto catalog = traffic::build_paper_catalog();
  FleetConfig cfg;
  cfg.residences = 64;
  cfg.days = 2;  // short horizon keeps the test fast; 64 shards is the point
  cfg.seed = 20260726;
  auto configs = sample_stage(cfg, catalog).configs;

  ThreadPool four(3);  // + the calling thread = 4 lanes
  auto seq = simulate_fleet(catalog, configs, nullptr);
  auto par = simulate_fleet(catalog, configs, &four);

  // Fleet-level reduction: bit-identical.
  expect_same_aggregates(seq.fleet, par.fleet);
  EXPECT_EQ(seq.totals.sessions, par.totals.sessions);
  EXPECT_EQ(seq.totals.flows, par.totals.flows);
  EXPECT_EQ(seq.totals.skipped_invisible, par.totals.skipped_invisible);
  EXPECT_EQ(seq.totals.he_failures, par.totals.he_failures);

  // Every shard individually too.
  ASSERT_EQ(seq.residences.size(), par.residences.size());
  for (size_t i = 0; i < seq.residences.size(); ++i) {
    EXPECT_EQ(seq.residences[i].stats.sessions,
              par.residences[i].stats.sessions)
        << "residence " << i;
    EXPECT_EQ(seq.residences[i].stats.flows, par.residences[i].stats.flows);
    expect_same_aggregates(seq.residences[i].monitor,
                           par.residences[i].monitor);
  }

  // And lane count must not matter beyond 4 either.
  ThreadPool eight(7);
  auto w = simulate_fleet(catalog, configs, &eight);
  expect_same_aggregates(seq.fleet, w.fleet);

  // Lean shards at 1, 4 and 8 lanes: the same fleet view and the same
  // per-residence totals, daily series and events; the hourly and
  // destination tallies live only in the fleet view.
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four, &eight}) {
    SCOPED_TRACE(pool == nullptr ? 1 : pool->size() + 1);
    expect_lean_copy_of(seq, simulate_fleet(catalog, configs, pool, nullptr,
                                            ShardTallies::lean));
  }
}

// Residence count of the cached-run tests: enough shards for every lane.
constexpr int kCachedHomes = 24;

std::vector<traffic::ResidenceConfig> cached_run_configs(
    const traffic::ServiceCatalog& catalog) {
  FleetConfig cfg;
  cfg.residences = kCachedHomes;
  cfg.days = 3;
  cfg.seed = 20261020;
  return sample_stage(cfg, catalog).configs;
}

// A lean run with a cache, cold (every lookup misses) and then warm (every
// lookup hits), at 1, 4 and 8 lanes, equals the sequential uncached full
// run wherever a lean run keeps data, and keeps no per-home hourly or
// destination tallies: a cache no longer turns lean shards full.
TEST(SimulateFleet, CachedLeanRunMatchesUncachedFull) {
  const auto catalog = traffic::build_paper_catalog();
  const auto configs = cached_run_configs(catalog);
  const auto full = simulate_fleet(catalog, configs, nullptr);
  ThreadPool four(3), eight(7);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four, &eight}) {
    SCOPED_TRACE(pool == nullptr ? 1 : pool->size() + 1);
    PassCache cache;
    for (const char* pass : {"cold", "warm"}) {
      SCOPED_TRACE(pass);
      expect_lean_copy_of(full, simulate_fleet(catalog, configs, pool, &cache,
                                               ShardTallies::lean));
    }
    EXPECT_EQ(cache.size(), static_cast<std::size_t>(kCachedHomes));
    EXPECT_EQ(cache.lookups(), 2u * kCachedHomes);
    EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kCachedHomes));
  }
}

// A shard stored by a lean run serves a full run, and one stored by a full
// run serves a lean run: every home's full monitor equals the uncached
// full run's, and every lean run is its lean copy.
TEST(SimulateFleet, OneCacheServesLeanAndFullRuns) {
  const auto catalog = traffic::build_paper_catalog();
  const auto configs = cached_run_configs(catalog);
  const auto full = simulate_fleet(catalog, configs, nullptr);
  ThreadPool four(3);
  auto expect_full = [&](const FleetResult& got) {
    expect_same_aggregates(full.fleet, got.fleet);
    EXPECT_TRUE(same_stats(full.totals, got.totals));
    ASSERT_EQ(full.residences.size(), got.residences.size());
    for (size_t i = 0; i < full.residences.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_TRUE(
          same_stats(full.residences[i].stats, got.residences[i].stats));
      expect_same_aggregates(full.residences[i].monitor,
                             got.residences[i].monitor);
    }
  };

  PassCache lean_first;
  expect_lean_copy_of(full, simulate_fleet(catalog, configs, &four,
                                           &lean_first, ShardTallies::lean));
  expect_full(simulate_fleet(catalog, configs, &four, &lean_first));
  EXPECT_EQ(lean_first.hits(), static_cast<std::uint64_t>(kCachedHomes));

  PassCache full_first;
  expect_full(simulate_fleet(catalog, configs, &four, &full_first));
  expect_lean_copy_of(full, simulate_fleet(catalog, configs, &four,
                                           &full_first, ShardTallies::lean));
  EXPECT_EQ(full_first.hits(), static_cast<std::uint64_t>(kCachedHomes));
}

TEST(SimulateFleet, FlatShardMatchesReferenceTableAggregates) {
  // One residence simulated into a flat shard, and the same residence's
  // flow stream (captured by a FlowEventBuffer) replayed into the reference
  // unordered_map table: monitor aggregates must agree exactly.
  auto catalog = traffic::build_paper_catalog();
  FleetConfig fc;
  fc.residences = 1;
  fc.days = 4;
  auto configs = sample_stage(fc, catalog).configs;

  FlatConntrack flat_table;
  flowmon::FlowMonitor flat_mon;
  flat_mon.attach(flat_table);
  traffic::ResidenceSimulator flat_sim(catalog, configs[0]);
  auto flat_stats = flat_sim.run(flat_table);

  FlowEventBuffer stream;
  traffic::ResidenceSimulator capture_sim(catalog, configs[0]);
  auto capture_stats = capture_sim.run(stream);
  testutil::ReferenceConntrack ref_table;
  flowmon::FlowMonitor ref_mon;
  ref_mon.attach(ref_table);
  for (const FlowEvent& ev : stream.events()) {
    ref_table.open(ev.key, ev.start, ev.scope);
    ref_table.account(ev.key, ev.start, ev.bytes_out, ev.bytes_in);
    ref_table.close(ev.key, ev.end);
  }

  EXPECT_EQ(capture_stats.sessions, flat_stats.sessions);
  EXPECT_EQ(capture_stats.flows, flat_stats.flows);
  EXPECT_EQ(stream.events().size(), flat_mon.destroy_events());
  expect_same_aggregates(ref_mon, flat_mon);
}

TEST(SimulateFleet, FleetViewFeedsCoreAnalyses) {
  auto catalog = traffic::build_paper_catalog();
  FleetConfig cfg;
  cfg.residences = 8;
  cfg.days = 3;
  ThreadPool pool(1);
  auto result = testutil::simulate_scenario(cfg, catalog, &pool);

  EXPECT_EQ(result.residences.size(), 8u);
  EXPECT_GT(result.totals.flows, 0u);
  // The merged view is a plain FlowMonitor: totals must equal the sum of
  // the shard totals.
  std::uint64_t shard_bytes = 0;
  for (const auto& r : result.residences)
    shard_bytes += r.monitor.external_bytes();
  EXPECT_EQ(result.fleet.external_bytes(), shard_bytes);

  // And the core reporting layer consumes the fleet result directly.
  const auto fleet = core::analyze_residence("fleet", result.fleet);
  EXPECT_EQ(fleet.name, "fleet");
  EXPECT_NEAR(fleet.external.total_gb,
              static_cast<double>(shard_bytes) / 1e9, 1e-9);

  // The stats report's matrix is the whole-horizon metric matrix, bit for
  // bit: the one place the scenario chain exposes it.
  const auto report = core::fleet_stats_report(result, &pool);
  const auto direct =
      core::extract_metrics(result, core::default_fleet_metrics());
  EXPECT_EQ(report.matrix.metrics, direct.metrics);
  ASSERT_EQ(report.matrix.values.size(), direct.values.size());
  for (std::size_t m = 0; m < direct.values.size(); ++m) {
    ASSERT_EQ(report.matrix.values[m].size(), direct.values[m].size());
    EXPECT_EQ(std::memcmp(report.matrix.values[m].data(),
                          direct.values[m].data(),
                          direct.values[m].size() * sizeof(double)),
              0)
        << core::to_string(direct.metrics[m]);
  }
  EXPECT_GT(report.matrix.values[0].size(), 0u);
}

}  // namespace
}  // namespace nbv6::engine
