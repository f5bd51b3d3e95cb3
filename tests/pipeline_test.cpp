// The scenario chain: five stages in order, the population and residence
// shards cached and everything else re-run, nothing left bound after a
// failure, and the guarantee that a cached scenario run is byte-identical
// to an uncached one at any lane count.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario_pipeline.h"
#include "engine/fleet.h"
#include "engine/pipeline.h"
#include "engine/run_spec.h"
#include "engine/thread_pool.h"
#include "testutil.h"
#include "traffic/service_catalog.h"

namespace {

using namespace nbv6;
using engine::PassCache;
using engine::Pipeline;

const char* const kStages[] = {"sample", "timeline", "simulate", "report",
                               "window_panel"};

engine::FleetConfig small_config() {
  engine::FleetConfig cfg;
  cfg.residences = 8;
  cfg.days = 6;
  cfg.seed = 7;
  return cfg;
}

engine::TimelineEvent fix_event(double fraction) {
  engine::TimelineEvent ev;
  ev.kind = engine::TimelineEventKind::cpe_fix;
  ev.start_day = 1;
  ev.end_day = 4;
  ev.fraction = fraction;
  return ev;
}

// ---------------------------------------------------------------- cache

// Populations and residence shards live in one map each: a shard stored
// under a population's key is a miss for population(key), and the other way
// round, so neither kind is ever bound as the other. A pipeline whose
// population key holds only a shard samples, and stores its own entry.
TEST(PassCache, KindsNeverCrossBind) {
  const auto catalog = traffic::build_paper_catalog();
  const auto cfg = small_config();
  const std::uint64_t key = engine::population_key(cfg, catalog);
  const auto shard = std::make_shared<const engine::Shard>();
  const auto population = std::make_shared<const engine::SampledFleet>();
  PassCache cache;
  cache.store(key, shard);
  cache.store(key + 1, population);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.population(key), nullptr);
  EXPECT_EQ(cache.shard(key + 1), nullptr);
  EXPECT_EQ(cache.shard(key), shard);
  EXPECT_EQ(cache.population(key + 1), population);
  EXPECT_EQ(cache.shard(key + 2), nullptr);  // plain miss
  // Every lookup counts; only a found entry is a hit.
  EXPECT_EQ(cache.lookups(), 5u);
  EXPECT_EQ(cache.hits(), 2u);

  Pipeline pipe = core::make_scenario_pipeline(cfg, catalog);
  const auto stats = pipe.run(&cache);
  EXPECT_EQ(stats.executed, 5u);
  EXPECT_EQ(stats.cached, 0u);
  EXPECT_EQ(cache.population(key).get(),
            &pipe.output<engine::SampledFleet>("population"));
  EXPECT_EQ(cache.shard(key), shard);
}

// ------------------------------------------------------------ the chain

// Every stage runs once per uncached run, in chain order, and binds its
// resource; names that are no stage, no resource or a resource of another
// type throw.
TEST(ScenarioPipeline, UncachedRunExecutesEveryStageEveryTime) {
  const auto catalog = traffic::build_paper_catalog();
  Pipeline pipe = core::make_scenario_pipeline(small_config(), catalog);
  EXPECT_EQ(testutil::bound_resources(pipe), 0);
  for (std::uint64_t call = 1; call <= 2; ++call) {
    const auto stats = pipe.run();
    EXPECT_EQ(stats.executed, 5u) << "call " << call;
    EXPECT_EQ(stats.cached, 0u) << "call " << call;
    for (const char* stage : kStages)
      EXPECT_EQ(pipe.executions(stage), call) << stage << ", call " << call;
    EXPECT_EQ(testutil::bound_resources(pipe), 5) << "call " << call;
  }
  EXPECT_THROW((void)pipe.executions("extract"), std::invalid_argument);
  EXPECT_THROW((void)pipe.output<engine::FleetResult>("matrix"),
               std::logic_error);
  EXPECT_THROW((void)pipe.output<engine::SampledFleet>("fleet_result"),
               std::logic_error);
  EXPECT_THROW((void)pipe.output<core::GroupComparison>("stats_report"),
               std::logic_error);
  // The planned fleet is the population with the timeline applied to a
  // copy: the two are distinct values.
  EXPECT_NE(&pipe.output<engine::SampledFleet>("population"),
            &pipe.output<engine::SampledFleet>("planned_fleet"));
}

// A warm re-run binds the population from the cache and hits every
// residence shard; the other four stages run again.
TEST(ScenarioPipeline, WarmRerunHitsThePopulationAndEveryShard) {
  const auto catalog = traffic::build_paper_catalog();
  const auto cfg = small_config();
  Pipeline pipe = core::make_scenario_pipeline(cfg, catalog);
  PassCache cache;
  const auto cold = pipe.run(&cache);
  EXPECT_EQ(cold.executed, 5u);
  EXPECT_EQ(cold.cached, 0u);
  // The population plus one shard per home.
  const std::size_t entries = 1 + static_cast<std::size_t>(cfg.residences);
  EXPECT_EQ(cache.size(), entries);

  const std::uint64_t lookups = cache.lookups();
  const std::uint64_t hits = cache.hits();
  const auto warm = pipe.run(&cache);
  EXPECT_EQ(warm.executed, 4u);
  EXPECT_EQ(warm.cached, 1u);
  EXPECT_EQ(pipe.executions("sample"), 1u);
  EXPECT_EQ(pipe.executions("simulate"), 2u);
  EXPECT_EQ(cache.lookups() - lookups, entries);
  EXPECT_EQ(cache.hits() - hits, entries);
  EXPECT_EQ(cache.size(), entries);
}

TEST(ScenarioPipeline, TimelineChangeKeepsSampleCached) {
  const auto catalog = traffic::build_paper_catalog();
  PassCache cache;

  auto base = small_config();
  Pipeline p1 = core::make_scenario_pipeline(base, catalog);
  p1.run(&cache);

  auto variant = base;
  variant.timeline->events.push_back(fix_event(0.5));
  Pipeline p2 = core::make_scenario_pipeline(variant, catalog);
  auto stats = p2.run(&cache);

  // Only the population key is shared: sample hits, the timeline stage and
  // everything downstream re-runs.
  EXPECT_EQ(p2.executions("sample"), 0u);
  EXPECT_EQ(p2.executions("timeline"), 1u);
  EXPECT_EQ(p2.executions("simulate"), 1u);
  EXPECT_EQ(stats.cached, 1u);
  EXPECT_EQ(stats.executed, 4u);
}

TEST(ScenarioPipeline, SeedChangeRerunsEverything) {
  const auto catalog = traffic::build_paper_catalog();
  PassCache cache;

  Pipeline p1 = core::make_scenario_pipeline(small_config(), catalog);
  p1.run(&cache);
  const std::size_t entries = cache.size();

  auto reseeded = small_config();
  reseeded.seed.mut() += 1;
  Pipeline p2 = core::make_scenario_pipeline(reseeded, catalog);
  auto stats = p2.run(&cache);
  EXPECT_EQ(stats.cached, 0u);
  EXPECT_EQ(stats.executed, 5u);
  // A new population and a new shard for every home: residence seeds
  // derive from the master seed.
  EXPECT_EQ(cache.size(), 2 * entries);
}

TEST(ScenarioPipeline, WhatIfForestSamplesBaseExactlyOnce) {
  const auto catalog = traffic::build_paper_catalog();
  PassCache cache;
  const auto base = small_config();

  std::vector<std::unique_ptr<Pipeline>> pipes;
  for (int v = 0; v < 5; ++v) {
    auto cfg = base;
    if (v > 0) cfg.timeline->events.push_back(fix_event(0.2 * v));
    pipes.push_back(std::make_unique<Pipeline>(
        core::make_scenario_pipeline(cfg, catalog)));
    pipes.back()->run(&cache);
  }
  std::uint64_t sample_execs = 0;
  for (const auto& p : pipes) sample_execs += p->executions("sample");
  EXPECT_EQ(sample_execs, 1u);
}

// ------------------------------------------------------ failure handling

// A failed run leaves nothing bound: not the stage results it produced
// before the failure, and not what an earlier successful run of the same
// pipeline bound. Here the failure is a population under the population key
// with one trait too few, which the timeline stage rejects.
TEST(ScenarioPipeline, FailedRunLeavesNothingBound) {
  const auto catalog = traffic::build_paper_catalog();
  const auto cfg = small_config();
  Pipeline pipe = core::make_scenario_pipeline(cfg, catalog);
  pipe.run();
  ASSERT_EQ(testutil::bound_resources(pipe), 5);

  auto short_traits =
      std::make_shared<engine::SampledFleet>(engine::sample_stage(cfg, catalog));
  short_traits->traits.pop_back();
  PassCache poisoned;
  poisoned.store(engine::population_key(cfg, catalog),
                 std::shared_ptr<const engine::SampledFleet>(short_traits));
  EXPECT_THROW(pipe.run(&poisoned), std::invalid_argument);
  EXPECT_EQ(testutil::bound_resources(pipe), 0);

  // The pipeline stays usable.
  pipe.run();
  EXPECT_EQ(testutil::bound_resources(pipe), 5);
}

// -------------------------------------------------------- golden parity

// A cached scenario run must be byte-identical to the uncached 1-lane run
// for every committed scenario, at 1, 4, and 8 lanes, with cross-lane
// cache reuse in play (a population and shards cached by a 1-lane run
// bind into an 8-lane run).
//
// Then shard-level reuse: a twin with one more event, a whole-horizon
// cpe_fix, primes a fresh cache at each lane count and the scenario runs on
// it. The fix re-plans only broken-CPE homes, so the simulate stage
// re-simulates those while every other home's shard hits. (Dropping an
// event instead, as the fuzzer's twin does, can re-plan every home: a
// fleet-wide CGN budget or seasonal swing.)
TEST(ScenarioPipeline, CachedRunsMatchUncachedByteForByte) {
  const auto catalog = traffic::build_paper_catalog();
  const auto files = testutil::scenario_files();
  ASSERT_FALSE(files.empty());

  for (const auto& path : files) {
    std::string error;
    auto cfg = engine::FleetConfig::load(path, &error);
    ASSERT_TRUE(cfg) << path << ": " << error;
    const std::string stem = testutil::scenario_stem(path);

    const std::string expected =
        testutil::canonical_serialize(testutil::run_scenario(*cfg, catalog, 1));
    auto check = [&](const Pipeline& pipe, const std::string& where) {
      testutil::ScenarioRun run;
      run.cfg = *cfg;
      run.result = pipe.output<engine::FleetResult>("fleet_result");
      run.report = pipe.output<core::FleetStatsReport>("stats_report");
      run.window_panel = pipe.output<core::GroupComparison>("window_panel");
      const std::string got = testutil::canonical_serialize(run);
      EXPECT_EQ(got, expected)
          << stem << " " << where << ": " << testutil::first_diff(got, expected);
    };

    engine::FleetConfig twin = *cfg;
    engine::TimelineEvent fix = fix_event(0.5);
    fix.start_day = 0;
    fix.end_day = cfg->days - 1;
    twin.timeline->events.push_back(fix);

    PassCache shared;  // shared across lane counts on purpose
    for (int lanes : {1, 4, 8}) {
      std::unique_ptr<engine::ThreadPool> pool;
      if (lanes > 1) pool = std::make_unique<engine::ThreadPool>(lanes - 1);
      const std::string at = "@ " + std::to_string(lanes) + " lanes";

      Pipeline pipe = core::make_scenario_pipeline(*cfg, catalog);
      pipe.run(&shared, pool.get());
      check(pipe, at);

      PassCache primed;
      core::make_scenario_pipeline(twin, catalog).run(&primed, pool.get());
      const std::size_t before = primed.size();
      Pipeline reuse = core::make_scenario_pipeline(*cfg, catalog);
      reuse.run(&primed, pool.get());
      EXPECT_EQ(reuse.executions("sample"), 0u) << stem << " " << at;
      EXPECT_EQ(reuse.executions("simulate"), 1u) << stem << " " << at;
      // The run adds one shard per home the twin planned differently, and
      // nothing else: the population hits.
      EXPECT_LT(primed.size() - before,
                static_cast<std::size_t>(cfg->residences))
          << stem << " " << at << ": no shard hit";
      check(reuse, "on a twin-primed cache " + at);
    }
  }
}

}  // namespace
