// Digest-coverage audit. The scenario chain caches each sampled population
// under engine::population_key, so a FleetConfig field that changes what
// sample_stage returns but not the key would let a what-if forest bind one
// config's population to another, a stale-cache bug. The population-key
// tests mutate every FleetConfig field in turn, on every committed
// scenario, and check that whenever the sample moved, the key moved too. A
// deliberately broken key proves the check catches an omission.
//
// The same class exists one level down: the simulate stage caches each
// residence's shard under engine::shard_key, so a ResidenceConfig or
// DayPlan field missing from that key would bind another variant's shard.
// The shard-key tests mutate every field one at a time.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/fleet.h"
#include "engine/pipeline.h"
#include "engine/run_spec.h"
#include "testutil.h"
#include "traffic/residence.h"
#include "traffic/service_catalog.h"

namespace {

using namespace nbv6;
using engine::FleetConfig;

// ------------------------------------------------------ sampled population

// A field-for-field mirror of FleetConfig, the tripwire for a new field:
// fold it into engine::population_key, give it a mutation below, then
// extend the mirror. (As with the shard-key mirrors further down, a field
// small enough to fit in padding slips past; the mutations are the proof.)
struct FleetConfigFields {
  int residences;
  int days;
  std::uint64_t seed;
  double dual_stack_isp_frac;
  double broken_v6_frac;
  double heavy_streamer_frac;
  double background_only_frac;
  double opt_out_frac;
  double absence_prob;
  double activity_scale_min;
  double activity_scale_max;
  traffic::ArrivalConfig arrival;
  engine::Timeline timeline;
};
static_assert(sizeof(FleetConfig) == sizeof(FleetConfigFields),
              "FleetConfig changed: cover the new field in "
              "engine::population_key");

// Moves a fraction by a quarter, staying inside [0, 1].
double moved(double frac) { return frac < 0.5 ? frac + 0.25 : frac - 0.25; }

using ConfigMutation = void (*)(FleetConfig&);

// One mutation per FleetConfig field, and one per member of `arrival`,
// each of which the key folds on its own. Every one moves its field on
// any base config; only the timeline's may leave the sample as it was.
const std::vector<std::pair<const char*, ConfigMutation>> kFieldMutations = {
    {"residences", [](FleetConfig& c) { c.residences.mut() += 1; }},
    {"days", [](FleetConfig& c) { c.days.mut() += 1; }},
    {"seed", [](FleetConfig& c) { c.seed.mut() += 1; }},
    {"dual_stack_isp_frac",
     [](FleetConfig& c) {
       c.dual_stack_isp_frac = moved(c.dual_stack_isp_frac);
     }},
    {"broken_v6_frac",
     [](FleetConfig& c) { c.broken_v6_frac = moved(c.broken_v6_frac); }},
    {"heavy_streamer_frac",
     [](FleetConfig& c) {
       c.heavy_streamer_frac = moved(c.heavy_streamer_frac);
     }},
    {"background_only_frac",
     [](FleetConfig& c) {
       c.background_only_frac = moved(c.background_only_frac);
     }},
    {"opt_out_frac",
     [](FleetConfig& c) { c.opt_out_frac = moved(c.opt_out_frac); }},
    {"absence_prob",
     [](FleetConfig& c) { c.absence_prob = moved(c.absence_prob); }},
    {"activity_scale_min",
     [](FleetConfig& c) { c.activity_scale_min.mut() -= 0.5; }},
    {"activity_scale_max",
     [](FleetConfig& c) { c.activity_scale_max.mut() += 0.5; }},
    {"arrival.mode",
     [](FleetConfig& c) {
       c.arrival->mode = c.arrival->mode == traffic::ArrivalMode::batch
                             ? traffic::ArrivalMode::poisson
                             : traffic::ArrivalMode::batch;
     }},
    {"arrival.ticks_per_hour",
     [](FleetConfig& c) {
       c.arrival->ticks_per_hour = c.arrival->ticks_per_hour % 3600 + 1;
     }},
    {"timeline",
     [](FleetConfig& c) { c.timeline->events.emplace_back(); }},
};

// Two samples are the same population exactly when their strata are equal
// and every residence has the same shard key: that key covers every
// ResidenceConfig field, and sample_stage never sets day_plan_fn.
bool same_population(const engine::SampledFleet& a,
                     const engine::SampledFleet& b,
                     const traffic::ServiceCatalog& catalog) {
  if (a.traits != b.traits || a.configs.size() != b.configs.size())
    return false;
  for (std::size_t i = 0; i < a.configs.size(); ++i)
    if (engine::shard_key(catalog, a.configs[i]) !=
        engine::shard_key(catalog, b.configs[i]))
      return false;
  return true;
}

using PopulationKey = std::uint64_t (*)(const FleetConfig&,
                                        const traffic::ServiceCatalog&);

// The fields whose mutation moves the sample of `base` but not `key`. Any
// entry is a stale-cache bug: two configs that sample differently would
// share one cached population.
std::vector<std::string> uncovered_fields(
    const FleetConfig& base, const traffic::ServiceCatalog& catalog,
    PopulationKey key) {
  const engine::SampledFleet base_sample = engine::sample_stage(base, catalog);
  const std::uint64_t base_key = key(base, catalog);
  std::vector<std::string> out;
  for (const auto& [field, mutate] : kFieldMutations) {
    FleetConfig c = base;
    mutate(c);
    EXPECT_FALSE(c == base) << field << ": the mutation did not move it";
    if (!same_population(engine::sample_stage(c, catalog), base_sample,
                         catalog) &&
        key(c, catalog) == base_key)
      out.emplace_back(field);
  }
  return out;
}

TEST(PopulationKey, EveryCommittedScenarioIsCovered) {
  const auto catalog = traffic::build_paper_catalog();
  const auto files = testutil::scenario_files();
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    std::string err;
    auto cfg = FleetConfig::load(path, &err);
    ASSERT_TRUE(cfg.has_value()) << path << ": " << err;
    EXPECT_EQ(uncovered_fields(*cfg, catalog, engine::population_key),
              std::vector<std::string>{})
        << path << ": these fields change the sample but not the key";
  }
}

TEST(PopulationKey, EveryFieldButTheTimelineMovesSampleAndKey) {
  // Guards against a vacuous audit: on the default config every mutation
  // but the timeline's reaches the sample, and the key follows it. The
  // timeline cannot change what is sampled, so the key leaves it out.
  const auto catalog = traffic::build_paper_catalog();
  const FleetConfig base;
  const engine::SampledFleet base_sample = engine::sample_stage(base, catalog);
  const std::uint64_t base_key = engine::population_key(base, catalog);
  for (const auto& [field, mutate] : kFieldMutations) {
    FleetConfig c = base;
    mutate(c);
    const bool timeline = std::string(field) == "timeline";
    EXPECT_EQ(same_population(engine::sample_stage(c, catalog), base_sample,
                              catalog),
              timeline)
        << field;
    EXPECT_EQ(engine::population_key(c, catalog) == base_key, timeline)
        << field;
  }
}

TEST(PopulationKey, CatchesAnOmittedField) {
  // Seed a stale-cache bug on purpose: engine::population_key minus
  // broken_v6_frac. The check must flag that field and only that one.
  const auto catalog = traffic::build_paper_catalog();
  const PopulationKey broken_key = [](const FleetConfig& cfg,
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
  EXPECT_EQ(uncovered_fields(FleetConfig{}, catalog, broken_key),
            std::vector<std::string>{"broken_v6_frac"});
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
