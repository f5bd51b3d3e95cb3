// Digest-coverage auditor: every config field sample_stage reads must be
// covered by engine::population_key, or a shared PassCache can bind one
// config's population to another that differs only in the uncovered field
// — the PR 8/9 stale-cache bug class. The audit records per-field
// FleetConfig reads (see engine/config_tracking.h) separately for the key
// and for the stage, then checks run_reads ⊆ digest_reads for every
// committed scenario. A negative test pairs the stage's real read set with a
// deliberately broken population key and proves the check catches it.
//
// The same stale-cache class exists one level down: the simulate stage
// caches each residence's shard under engine::shard_key, so a
// ResidenceConfig or DayPlan field missing from that key would bind another
// variant's shard. The shard-key tests mutate every field one at a time.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario_pipeline.h"
#include "engine/config_tracking.h"
#include "engine/fleet.h"
#include "engine/pipeline.h"
#include "engine/run_spec.h"
#include "testutil.h"
#include "traffic/residence.h"
#include "traffic/service_catalog.h"

namespace {

using namespace nbv6;
using engine::ConfigField;
using engine::ConfigReadSet;
using engine::ConfigReadTracker;
using engine::FleetConfig;

std::size_t bit(ConfigField f) { return static_cast<std::size_t>(f); }

// --------------------------------------------------- tracking primitives

TEST(ConfigTracking, OffByDefault) {
  FleetConfig cfg;
  // No scope active: reads must not crash and must record nowhere.
  EXPECT_GE(cfg.days, 1);
  ConfigReadTracker::Scope scope;
  EXPECT_TRUE(scope.reads().none());
}

TEST(ConfigTracking, RecordsScalarStructAndWholeValueReads) {
  FleetConfig cfg;
  ConfigReadTracker::Scope scope;
  const int d = cfg.days;
  (void)d;
  (void)cfg.timeline->events.size();      // struct member via operator->
  const engine::Timeline& t = cfg.timeline;  // whole-value conversion
  (void)t;
  EXPECT_TRUE(scope.reads().test(bit(ConfigField::days)));
  EXPECT_TRUE(scope.reads().test(bit(ConfigField::timeline)));
  EXPECT_FALSE(scope.reads().test(bit(ConfigField::seed)));
}

TEST(ConfigTracking, CopyAndWriteDoNotRecord) {
  FleetConfig cfg;
  ConfigReadTracker::Scope scope;
  FleetConfig copy = cfg;  // by-value capture of a config is not a read
  copy.days = 3;
  copy.seed.mut() += 1;
  copy.timeline->events.clear();
  EXPECT_TRUE(scope.reads().none());
}

TEST(ConfigTracking, ScopesNestAndRestore) {
  FleetConfig cfg;
  ConfigReadTracker::Scope outer;
  {
    ConfigReadTracker::Scope inner;
    (void)static_cast<int>(cfg.days);
    EXPECT_TRUE(inner.reads().test(bit(ConfigField::days)));
  }
  // The inner scope's reads stay its own; the outer scope is active again.
  EXPECT_TRUE(outer.reads().none());
  (void)static_cast<std::uint64_t>(cfg.seed);
  EXPECT_TRUE(outer.reads().test(bit(ConfigField::seed)));
}

// ------------------------------------------------------------- the audit

// The audit samples the full population; a small fleet keeps the sweep
// over every committed scenario cheap without changing which fields the
// stage reads (field reads depend on code paths, not population size —
// the one day-count-dependent path, absence sampling, keys off `days`,
// which scenarios control).
FleetConfig shrunk(FleetConfig cfg) {
  if (cfg.residences > 8) cfg.residences = 8;
  return cfg;
}

TEST(DigestAudit, EveryCommittedScenarioIsCovered) {
  const auto catalog = traffic::build_paper_catalog();
  const auto files = testutil::scenario_files();
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    std::string err;
    auto cfg = FleetConfig::load(path, &err);
    ASSERT_TRUE(cfg.has_value()) << path << ": " << err;
    const auto a = core::audit_scenario_passes(shrunk(*cfg), catalog);
    const ConfigReadSet uncovered = core::uncovered_config_reads(a);
    EXPECT_TRUE(uncovered.none())
        << path << ": sample_stage reads {"
        << core::describe_read_set(a.run_reads)
        << "} but its key only covers {"
        << core::describe_read_set(a.digest_reads) << "}; uncovered: {"
        << core::describe_read_set(uncovered) << "}";
  }
}

TEST(DigestAudit, SamplePassActuallyReadsThePopulationSlice) {
  // Guard against a vacuous auditor: if tracking broke (recording nothing),
  // EveryCommittedScenarioIsCovered would pass trivially. The default
  // config must show sample reading its core fields.
  const auto catalog = traffic::build_paper_catalog();
  const auto sample =
      core::audit_scenario_passes(shrunk(FleetConfig{}), catalog);
  for (ConfigField f :
       {ConfigField::residences, ConfigField::seed, ConfigField::arrival,
        ConfigField::dual_stack_isp_frac, ConfigField::broken_v6_frac}) {
    EXPECT_TRUE(sample.run_reads.test(bit(f)))
        << "sample did not read " << std::string(to_string(f));
    EXPECT_TRUE(sample.digest_reads.test(bit(f)))
        << "population key missed " << std::string(to_string(f));
  }
}

TEST(DigestAudit, DigestReadSetsAreSlices) {
  // Guard the other direction: a key's read set is recorded while it is
  // computed, so a copy of the config that started counting as a read
  // would make the key "cover" every field and the audit vacuous. The
  // population key must stay its own slice: the timeline, which cannot
  // change what is sampled, is neither read by the stage nor folded.
  const auto catalog = traffic::build_paper_catalog();
  const auto audit =
      core::audit_scenario_passes(shrunk(FleetConfig{}), catalog);
  EXPECT_FALSE(audit.digest_reads.test(bit(ConfigField::timeline)))
      << core::describe_read_set(audit.digest_reads);
  EXPECT_FALSE(audit.run_reads.test(bit(ConfigField::timeline)))
      << core::describe_read_set(audit.run_reads);
}

TEST(DigestAudit, CatchesAnOmittedDigestField) {
  // Seed the PR 8/9 bug on purpose: a population key that forgets
  // broken_v6_frac. Two configs differing only there would collide in the
  // cache; paired with what sample_stage really reads, the audit must flag
  // the omission. The broken key is engine::population_key minus one field.
  const auto catalog = traffic::build_paper_catalog();
  const FleetConfig config = shrunk(FleetConfig{});
  auto broken_population_key = [](const FleetConfig& cfg,
                                  const traffic::ServiceCatalog& cat) {
    return engine::DigestBuilder()
        .str("population")
        .i64(cfg.residences)
        .i64(cfg.days)
        .u64(cfg.seed)
        .f64(cfg.dual_stack_isp_frac)
        // broken_v6_frac deliberately omitted
        .f64(cfg.heavy_streamer_frac)
        .f64(cfg.background_only_frac)
        .f64(cfg.opt_out_frac)
        .f64(cfg.absence_prob)
        .f64(cfg.activity_scale_min)
        .f64(cfg.activity_scale_max)
        .u64(static_cast<std::uint64_t>(cfg.arrival->mode))
        .i64(cfg.arrival->ticks_per_hour)
        .u64(cat.content_digest())
        .value();
  };
  core::PassReadAudit sample = core::audit_scenario_passes(config, catalog);
  {
    ConfigReadTracker::Scope scope;
    (void)broken_population_key(config, catalog);
    sample.digest_reads = scope.reads();
  }
  const ConfigReadSet uncovered = core::uncovered_config_reads(sample);
  EXPECT_TRUE(uncovered.test(bit(ConfigField::broken_v6_frac)))
      << "auditor failed to flag the seeded omission; uncovered: {"
      << core::describe_read_set(uncovered) << "}";
  // And only that field: the rest of the slice is intact.
  ConfigReadSet expected;
  expected.set(bit(ConfigField::broken_v6_frac));
  EXPECT_EQ(uncovered, expected)
      << "unexpected extra uncovered fields: {"
      << core::describe_read_set(uncovered) << "}";
}

// ------------------------------------------------------- residence shards

// Field-for-field mirrors of the two structs the shard key covers. Adding a
// field to either almost always changes its size, which trips these asserts
// before a stale shard can: extend engine::shard_key and the mutation lists
// below, then the mirror. (A field small enough to fit in padding slips
// past; the mutation tests are the proof, the asserts only a tripwire.)
struct DayPlanFields {
  double activity_mult;
  double device_v6_ok_frac;
  double internal_v6_frac;
  bool outage;
  bool nat64;
  int prefix_epoch;
  std::uint64_t service_down_mask;
  int cgn_port_budget;
  double lambda_mult;
  std::uint32_t flash_hour_mask;
  double flash_mult;
};
static_assert(sizeof(traffic::DayPlan) == sizeof(DayPlanFields),
              "DayPlan changed: cover the new field in engine::shard_key");

struct ResidenceConfigFields {
  std::string name;
  int days;
  int start_weekday;
  double activity_scale;
  double device_v6_ok_frac;
  double visibility;
  double internal_flows_per_hour;
  double internal_v6_frac;
  double background_v4_bias;
  std::vector<std::pair<std::string, double>> service_weight_overrides;
  std::vector<std::pair<int, int>> away_day_ranges;
  traffic::DayPlanFn day_plan_fn;
  traffic::ArrivalConfig arrival;
  std::uint64_t seed;
};
static_assert(sizeof(traffic::ResidenceConfig) ==
                  sizeof(ResidenceConfigFields),
              "ResidenceConfig changed: cover the new field in "
              "engine::shard_key");

// A non-default plan, so a mutation back to a default value still moves.
traffic::DayPlan shard_test_plan() {
  traffic::DayPlan p;
  p.activity_mult = 0.75;
  p.device_v6_ok_frac = 0.5;
  p.internal_v6_frac = 0.25;
  p.prefix_epoch = 1;
  p.service_down_mask = 2;
  p.cgn_port_budget = 40;
  p.lambda_mult = 1.25;
  p.flash_hour_mask = 1u << 20;
  p.flash_mult = 3.0;
  return p;
}

traffic::ResidenceConfig shard_test_config() {
  traffic::ResidenceConfig c;
  c.name = "R3";
  c.days = 5;
  c.start_weekday = 2;
  c.activity_scale = 3.5;
  c.device_v6_ok_frac = 0.6;
  c.visibility = 0.9;
  c.internal_flows_per_hour = 1.5;
  c.internal_v6_frac = 0.4;
  c.background_v4_bias = 0.3;
  c.service_weight_overrides = {{"netflix", 2.0}, {"zoom", 0.5}};
  c.away_day_ranges = {{1, 2}};
  c.arrival.mode = traffic::ArrivalMode::poisson;
  c.arrival.ticks_per_hour = 30;
  c.seed = 99;
  c.day_plan_fn = [](int) { return shard_test_plan(); };
  return c;
}

TEST(ShardKey, EveryResidenceConfigFieldChangesTheKey) {
  const auto catalog = traffic::build_paper_catalog();
  const traffic::ResidenceConfig base = shard_test_config();
  const std::uint64_t base_key = engine::shard_key(catalog, base);
  EXPECT_EQ(engine::shard_key(catalog, shard_test_config()), base_key)
      << "the key is not a pure function of the config";

  using Mutation = void (*)(traffic::ResidenceConfig&);
  const std::vector<std::pair<const char*, Mutation>> mutations = {
      {"name", [](traffic::ResidenceConfig& c) { c.name = "R4"; }},
      {"days", [](traffic::ResidenceConfig& c) { c.days = 6; }},
      {"start_weekday",
       [](traffic::ResidenceConfig& c) { c.start_weekday = 3; }},
      {"activity_scale",
       [](traffic::ResidenceConfig& c) { c.activity_scale = 4.0; }},
      {"device_v6_ok_frac",
       [](traffic::ResidenceConfig& c) { c.device_v6_ok_frac = 0.7; }},
      {"visibility", [](traffic::ResidenceConfig& c) { c.visibility = 1.0; }},
      {"internal_flows_per_hour",
       [](traffic::ResidenceConfig& c) { c.internal_flows_per_hour = 2.0; }},
      {"internal_v6_frac",
       [](traffic::ResidenceConfig& c) { c.internal_v6_frac = 0.5; }},
      {"background_v4_bias",
       [](traffic::ResidenceConfig& c) { c.background_v4_bias = 0.7; }},
      {"override name",
       [](traffic::ResidenceConfig& c) {
         c.service_weight_overrides[1].first = "youtube";
       }},
      {"override weight",
       [](traffic::ResidenceConfig& c) {
         c.service_weight_overrides[1].second = 0.25;
       }},
      {"override added",
       [](traffic::ResidenceConfig& c) {
         c.service_weight_overrides.emplace_back("steam", 1.0);
       }},
      {"override removed",
       [](traffic::ResidenceConfig& c) {
         c.service_weight_overrides.pop_back();
       }},
      {"away first",
       [](traffic::ResidenceConfig& c) { c.away_day_ranges[0].first = 0; }},
      {"away last",
       [](traffic::ResidenceConfig& c) { c.away_day_ranges[0].second = 3; }},
      {"away added",
       [](traffic::ResidenceConfig& c) { c.away_day_ranges.push_back({4, 4}); }},
      {"arrival mode",
       [](traffic::ResidenceConfig& c) {
         c.arrival.mode = traffic::ArrivalMode::uniform;
       }},
      {"arrival ticks",
       [](traffic::ResidenceConfig& c) { c.arrival.ticks_per_hour = 60; }},
      {"seed", [](traffic::ResidenceConfig& c) { c.seed = 100; }},
  };
  for (const auto& [field, mutate] : mutations) {
    traffic::ResidenceConfig c = shard_test_config();
    mutate(c);
    EXPECT_NE(engine::shard_key(catalog, c), base_key) << field;
  }

  // The catalog is half of what a shard reads.
  auto bigger = traffic::build_paper_catalog();
  traffic::Service extra = bigger.at(0);
  extra.name = "shard-key-extra";
  bigger.add(extra);
  EXPECT_NE(engine::shard_key(bigger, base), base_key) << "catalog";
}

TEST(ShardKey, EveryDayPlanFieldOnEveryDayChangesTheKey) {
  const auto catalog = traffic::build_paper_catalog();
  const traffic::ResidenceConfig base = shard_test_config();
  const std::uint64_t base_key = engine::shard_key(catalog, base);

  using Mutation = void (*)(traffic::DayPlan&);
  const std::vector<std::pair<const char*, Mutation>> mutations = {
      {"activity_mult", [](traffic::DayPlan& p) { p.activity_mult = 1.0; }},
      {"device_v6_ok_frac",
       [](traffic::DayPlan& p) { p.device_v6_ok_frac = -1.0; }},
      {"internal_v6_frac",
       [](traffic::DayPlan& p) { p.internal_v6_frac = -1.0; }},
      {"outage", [](traffic::DayPlan& p) { p.outage = true; }},
      {"nat64", [](traffic::DayPlan& p) { p.nat64 = true; }},
      {"prefix_epoch", [](traffic::DayPlan& p) { p.prefix_epoch = 0; }},
      {"service_down_mask",
       [](traffic::DayPlan& p) { p.service_down_mask = 0; }},
      {"cgn_port_budget", [](traffic::DayPlan& p) { p.cgn_port_budget = -1; }},
      {"lambda_mult", [](traffic::DayPlan& p) { p.lambda_mult = 1.0; }},
      {"flash_hour_mask", [](traffic::DayPlan& p) { p.flash_hour_mask = 0; }},
      {"flash_mult", [](traffic::DayPlan& p) { p.flash_mult = 1.0; }},
  };
  auto keyed = [&](int day, Mutation mutate) {
    traffic::ResidenceConfig c = shard_test_config();
    c.day_plan_fn = [day, mutate](int d) {
      traffic::DayPlan p = shard_test_plan();
      if (d == day) mutate(p);
      return p;
    };
    return engine::shard_key(catalog, c);
  };
  for (const auto& [field, mutate] : mutations) {
    for (int day = 0; day < base.days; ++day)
      EXPECT_NE(keyed(day, mutate), base_key) << field << " on day " << day;
    // The simulator never asks for a day outside the horizon, so neither
    // does the key.
    EXPECT_EQ(keyed(-1, mutate), base_key) << field << " on day -1";
    EXPECT_EQ(keyed(base.days, mutate), base_key)
        << field << " on day " << base.days;
  }
}

TEST(ShardKey, KeysThePlansNotTheClosure) {
  const auto catalog = traffic::build_paper_catalog();
  traffic::ResidenceConfig computed = shard_test_config();
  traffic::ResidenceConfig indexed = shard_test_config();
  indexed.day_plan_fn = [plans = std::vector<traffic::DayPlan>(
                             static_cast<std::size_t>(indexed.days),
                             shard_test_plan())](int d) {
    return plans[static_cast<std::size_t>(d)];
  };
  EXPECT_EQ(engine::shard_key(catalog, computed),
            engine::shard_key(catalog, indexed));

  traffic::ResidenceConfig none = shard_test_config();
  none.day_plan_fn = nullptr;
  traffic::ResidenceConfig defaults = shard_test_config();
  defaults.day_plan_fn = [](int) { return traffic::kStaticDayPlan; };
  EXPECT_EQ(engine::shard_key(catalog, none),
            engine::shard_key(catalog, defaults));
  EXPECT_NE(engine::shard_key(catalog, none),
            engine::shard_key(catalog, computed));
}

}  // namespace
