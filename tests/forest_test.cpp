// ForestScheduler: what-if forests as a loop of Pipeline::run over one
// shared PassCache — byte-identical to uncached per-variant runs at any lane
// count, with the stages executed, the populations cached and the cache
// entries pinned exactly, and no pipeline left bound after a failure.
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
using engine::ForestScheduler;
using engine::PassCache;
using engine::Pipeline;

// ------------------------------------------- scenario forest determinism

engine::FleetConfig tiny_config() {
  engine::FleetConfig cfg;
  cfg.residences = 6;
  cfg.days = 6;
  cfg.seed = 11;
  return cfg;
}

std::vector<engine::FleetConfig> variant_configs(int variants) {
  std::vector<engine::FleetConfig> cfgs;
  for (int v = 0; v < variants; ++v) {
    engine::FleetConfig cfg = tiny_config();
    if (v > 0) {
      engine::TimelineEvent fix;
      fix.kind = engine::TimelineEventKind::cpe_fix;
      fix.start_day = 1;
      fix.end_day = cfg.days - 1;
      fix.fraction = static_cast<double>(v) / variants;
      cfg.timeline->events.push_back(fix);
    }
    cfgs.push_back(std::move(cfg));
  }
  return cfgs;
}

std::string serialize_pipe(const engine::FleetConfig& cfg, Pipeline& pipe) {
  testutil::ScenarioRun run;
  run.cfg = cfg;
  run.result = pipe.output<engine::FleetResult>("fleet_result");
  run.report = pipe.output<core::FleetStatsReport>("stats_report");
  run.window_panel = pipe.output<core::GroupComparison>("window_panel");
  return testutil::canonical_serialize(run);
}

// Without a cache, a one-pipeline forest run executes every stage on every
// call (nothing is looked up, stored or shared) and binds the same outputs
// as Pipeline::run(nullptr).
TEST(ForestScheduler, NullCacheRunExecutesEveryStageAndMatchesPipelineRun) {
  const auto catalog = traffic::build_paper_catalog();
  const engine::FleetConfig cfg = variant_configs(2)[1];

  Pipeline reference = core::make_scenario_pipeline(cfg, catalog);
  reference.run(nullptr);
  const std::string expected = serialize_pipe(cfg, reference);

  engine::ThreadPool pool(2);
  Pipeline pipe = core::make_scenario_pipeline(cfg, catalog);
  ForestScheduler::Options opts;
  opts.pool = &pool;
  for (std::uint64_t call = 1; call <= 2; ++call) {
    const auto stats = ForestScheduler::run({&pipe}, nullptr, opts);
    EXPECT_EQ(stats.executed, 5u) << "call " << call;
    EXPECT_EQ(stats.cached, 0u) << "call " << call;
    for (const char* stage :
         {"sample", "timeline", "simulate", "report", "window_panel"})
      EXPECT_EQ(pipe.executions(stage), call) << stage << ", call " << call;
    EXPECT_EQ(serialize_pipe(cfg, pipe), expected) << "call " << call;
  }
}

// The determinism pin: a 25-variant what-if forest at 1, 2 and 8 lanes
// produces byte-identical per-variant outputs to uncached per-variant runs,
// though it samples the base population once and shares every residence
// shard the variants plan alike. The counts are exact at every lane count:
// the pipelines run one after another, so no two of them can both miss one
// cache entry.
TEST(ForestScheduler, TwentyFiveVariantForestMatchesSerialByteForByte) {
  const auto catalog = traffic::build_paper_catalog();
  const int variants = 25;
  const auto cfgs = variant_configs(variants);

  // Cold reference: each variant alone, uncached, so no population and no
  // residence shard is shared with any other variant.
  std::vector<std::string> expected;
  for (int v = 0; v < variants; ++v) {
    Pipeline pipe = core::make_scenario_pipeline(cfgs[v], catalog);
    pipe.run(nullptr);
    expected.push_back(serialize_pipe(cfgs[v], pipe));
  }

  for (int lanes : {1, 2, 8}) {
    std::unique_ptr<engine::ThreadPool> pool;
    if (lanes > 1) pool = std::make_unique<engine::ThreadPool>(lanes - 1);
    const std::string at = "@ " + std::to_string(lanes) + " lanes";

    PassCache cache;
    std::vector<std::unique_ptr<Pipeline>> pipes;
    std::vector<Pipeline*> ptrs;
    for (int v = 0; v < variants; ++v) {
      pipes.push_back(std::make_unique<Pipeline>(
          core::make_scenario_pipeline(cfgs[v], catalog)));
      ptrs.push_back(pipes.back().get());
    }
    ForestScheduler::Options opts;
    opts.pool = pool.get();
    const auto stats = ForestScheduler::run(ptrs, cache, opts);

    std::uint64_t sample_execs = 0;
    for (const auto& p : pipes) sample_execs += p->executions("sample");
    EXPECT_EQ(sample_execs, 1u) << at;
    // Variant 0 runs all 5 stages; each later variant binds the sample and
    // runs timeline, simulate, report and window_panel.
    EXPECT_EQ(stats.executed, 101u) << at;
    EXPECT_EQ(stats.cached, 24u) << at;
    // The one population plus one shard per home: no tiny home has a
    // broken CPE, so no cpe_fix variant re-plans a home and all 25 share
    // the 6 shards.
    EXPECT_EQ(cache.size(), 7u) << at;
    // Variant 0 misses its population and 6 shards; each of the other 24
    // hits its population and all 6 shards.
    EXPECT_EQ(cache.lookups(), 25u * 7u) << at;
    EXPECT_EQ(cache.hits(), 24u * 7u) << at;

    for (int v = 0; v < variants; ++v) {
      EXPECT_EQ(serialize_pipe(cfgs[v], *pipes[v]), expected[v])
          << "variant " << v << " " << at;
    }
  }
}

// The warm-cache path on the real scenario chain: results land exactly as
// if each pipeline had run alone against the same warm cache.
TEST(ForestScheduler, ScenarioForestAgainstWarmCacheMatchesSerial) {
  const auto catalog = traffic::build_paper_catalog();
  const auto cfgs = variant_configs(3);

  PassCache cache;
  std::vector<std::string> expected;
  for (const auto& cfg : cfgs) {  // serial warm-up, also the reference
    Pipeline pipe = core::make_scenario_pipeline(cfg, catalog);
    pipe.run(&cache);
    expected.push_back(serialize_pipe(cfg, pipe));
  }

  std::vector<std::unique_ptr<Pipeline>> pipes;
  std::vector<Pipeline*> ptrs;
  for (const auto& cfg : cfgs) {
    pipes.push_back(std::make_unique<Pipeline>(
        core::make_scenario_pipeline(cfg, catalog)));
    ptrs.push_back(pipes.back().get());
  }
  const auto stats = ForestScheduler::run(ptrs, cache, {});

  // Each variant binds its population from the cache and runs the other
  // four stages, every shard a hit.
  EXPECT_EQ(stats.executed, 12u);
  EXPECT_EQ(stats.cached, 3u);
  for (std::size_t v = 0; v < cfgs.size(); ++v) {
    EXPECT_EQ(serialize_pipe(cfgs[v], *pipes[v]), expected[v])
        << "variant " << v;
  }
  // 1 shared population + the 6 homes' shards: no tiny home has a broken
  // CPE, so the cpe_fix variants change no plan and all three share one
  // shard per home.
  EXPECT_EQ(cache.size(), 7u);
}

// ------------------------------------------------------ failure handling

// Null and repeated pipelines are rejected before any pipeline runs.
TEST(ForestScheduler, RejectsBadPipelinesBeforeRunningAny) {
  const auto catalog = traffic::build_paper_catalog();
  Pipeline pipe = core::make_scenario_pipeline(tiny_config(), catalog);
  PassCache cache;
  EXPECT_THROW(ForestScheduler::run({&pipe, &pipe}, cache, {}),
               std::invalid_argument);
  EXPECT_THROW(ForestScheduler::run({&pipe, nullptr}, cache, {}),
               std::invalid_argument);
  EXPECT_EQ(pipe.executions("sample"), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookups(), 0u);
}

// A stage failure anywhere in the forest leaves no pipeline bound: `good`
// runs to completion before `poisoned` throws (its population key holds a
// population with one trait too few, which the timeline stage rejects), and
// its outputs are unbound too.
TEST(ForestScheduler, FailureClearsEveryPipelinesBoundState) {
  const auto catalog = traffic::build_paper_catalog();
  const auto cfgs = variant_configs(2);
  auto other_seed = cfgs[1];
  other_seed.seed.mut() += 1;
  Pipeline good = core::make_scenario_pipeline(cfgs[0], catalog);
  Pipeline poisoned = core::make_scenario_pipeline(other_seed, catalog);

  auto short_traits = std::make_shared<engine::SampledFleet>(
      engine::sample_stage(other_seed, catalog));
  short_traits->traits.pop_back();
  PassCache cache;
  cache.store(engine::population_key(other_seed, catalog),
              std::shared_ptr<const engine::SampledFleet>(short_traits));
  engine::ThreadPool pool(2);
  ForestScheduler::Options opts;
  opts.pool = &pool;
  EXPECT_THROW(ForestScheduler::run({&good, &poisoned}, cache, opts),
               std::invalid_argument);
  EXPECT_EQ(good.executions("window_panel"), 1u);
  EXPECT_EQ(testutil::bound_resources(good), 0);
  EXPECT_EQ(testutil::bound_resources(poisoned), 0);
}

}  // namespace
