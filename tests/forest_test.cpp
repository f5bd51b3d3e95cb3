// ForestScheduler: what-if forests as a loop of Pipeline::run over one
// shared PassCache — byte-identical to uncached per-variant runs at any lane
// count, with the passes executed, the passes cached and the cache entries
// pinned exactly.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario_pipeline.h"
#include "engine/fleet.h"
#include "engine/pipeline.h"
#include "engine/thread_pool.h"
#include "testutil.h"
#include "traffic/service_catalog.h"

namespace {

using namespace nbv6;
using engine::ForestScheduler;
using engine::Pass;
using engine::PassCache;
using engine::PassContext;
using engine::Pipeline;

Pass count_pass(std::string name, std::vector<std::string> inputs,
                std::vector<std::string> outputs, int* counter = nullptr,
                std::uint64_t config_digest = 0) {
  Pass p;
  p.name = std::move(name);
  p.inputs = std::move(inputs);
  p.outputs = std::move(outputs);
  p.config_digest = config_digest;
  p.run = [outputs = p.outputs, counter](PassContext& ctx) {
    if (counter != nullptr) ++*counter;
    for (const auto& out : outputs) ctx.out(out, int{1});
  };
  return p;
}

// ------------------------------------------------------------ reuse

// Two pipelines share one digest-identical generator pass but diverge
// downstream. The generator runs once: the second pipeline binds the
// first one's result from the cache.
TEST(ForestScheduler, SharesDigestIdenticalPassesThroughTheCache) {
  int gen_runs = 0;
  Pipeline p1;
  p1.add(count_pass("gen", {}, {"base"}, &gen_runs));
  p1.add(count_pass("use", {"base"}, {"out"}, nullptr, /*digest=*/1));
  Pipeline p2;
  p2.add(count_pass("gen", {}, {"base"}, &gen_runs));
  p2.add(count_pass("use", {"base"}, {"out"}, nullptr, /*digest=*/2));

  PassCache cache;
  const auto stats = ForestScheduler::run({&p1, &p2}, cache, {});

  EXPECT_EQ(gen_runs, 1);
  EXPECT_EQ(p1.executions("gen"), 1u);
  EXPECT_EQ(p2.executions("gen"), 0u);
  EXPECT_EQ(stats.executed, 3u);
  EXPECT_EQ(stats.cached, 1u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(p1.output<int>("out"), 1);
  EXPECT_EQ(p2.output<int>("out"), 1);
}

// Against a cache that already holds every digest, every pass of every
// pipeline binds from the cache exactly once and nothing runs.
TEST(ForestScheduler, WarmCacheBindsEveryPassOnce) {
  int gen_runs = 0;
  int mid_runs = 0;
  auto make_pipe = [&](std::uint64_t use_digest) {
    auto pipe = std::make_unique<Pipeline>();
    pipe->add(count_pass("gen", {}, {"base"}, &gen_runs));
    pipe->add(count_pass("mid", {"base"}, {"refined"}, &mid_runs));
    pipe->add(count_pass("use", {"refined"}, {"out"}, nullptr, use_digest));
    return pipe;
  };

  PassCache cache;
  {  // Warm-up: every digest in both variants lands in the cache.
    auto w1 = make_pipe(1);
    auto w2 = make_pipe(2);
    w1->run(&cache);
    w2->run(&cache);
  }
  gen_runs = 0;
  mid_runs = 0;

  auto p1 = make_pipe(1);
  auto p2 = make_pipe(2);
  const auto stats = ForestScheduler::run({p1.get(), p2.get()}, cache, {});

  EXPECT_EQ(stats.cached, 6u);
  EXPECT_EQ(stats.executed, 0u);
  EXPECT_EQ(gen_runs, 0);
  EXPECT_EQ(mid_runs, 0);
  EXPECT_EQ(p1->output<int>("out"), 1);
  EXPECT_EQ(p2->output<int>("out"), 1);
}

// ------------------------------------------------------ failure handling

TEST(ForestScheduler, PassFailureClearsEveryPipelinesBoundState) {
  Pipeline ok;
  ok.add(count_pass("a", {}, {"x"}));
  Pipeline bad;
  Pass boom;
  boom.name = "boom";
  boom.outputs = {"y"};
  boom.run = [](PassContext&) { throw std::runtime_error("forest boom"); };
  bad.add(std::move(boom));

  engine::ThreadPool pool(2);
  PassCache cache;
  ForestScheduler::Options opts;
  opts.pool = &pool;
  EXPECT_THROW(ForestScheduler::run({&ok, &bad}, cache, opts),
               std::runtime_error);
  // No partial state anywhere in the forest: `ok` ran to completion before
  // `bad` threw, and its outputs are unbound too.
  EXPECT_EQ(ok.executions("a"), 1u);
  EXPECT_THROW((void)ok.output_value("x"), std::logic_error);
  EXPECT_THROW((void)bad.output_value("y"), std::logic_error);
}

// Null, repeated and unschedulable pipelines are rejected before any pass
// of any pipeline runs.
TEST(ForestScheduler, RejectsBadPipelinesBeforeRunningAny) {
  int runs = 0;
  Pipeline pipe;
  pipe.add(count_pass("a", {}, {"x"}, &runs));
  Pipeline orphan;
  orphan.add(count_pass("b", {"missing"}, {"y"}));
  PassCache cache;
  EXPECT_THROW(ForestScheduler::run({&pipe, &pipe}, cache, {}),
               std::invalid_argument);
  EXPECT_THROW(ForestScheduler::run({&pipe, nullptr}, cache, {}),
               std::invalid_argument);
  EXPECT_THROW(ForestScheduler::run({&pipe, &orphan}, cache, {}),
               std::invalid_argument);
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(cache.size(), 0u);
}

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

// Without a cache, a one-pipeline forest run executes every pass on every
// call (nothing is looked up, stored or shared) and binds the same outputs
// as Pipeline::run(nullptr) — the run Pipeline::run itself delegates to.
TEST(ForestScheduler, NullCacheRunExecutesEveryPassAndMatchesPipelineRun) {
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
    EXPECT_EQ(stats.executed, pipe.pass_count()) << "call " << call;
    EXPECT_EQ(stats.cached, 0u) << "call " << call;
    for (const auto& pass : pipe.schedule())
      EXPECT_EQ(pipe.executions(pass), call) << pass << ", call " << call;
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

  // Cold reference: each variant alone, uncached, so no pass and no
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
    // Variant 0 runs all 5 passes; each later variant binds the sample and
    // runs timeline, simulate, report and window_panel.
    EXPECT_EQ(stats.executed, 101u) << at;
    EXPECT_EQ(stats.cached, 24u) << at;
    // The 101 pass entries plus one "simulate.shard" entry per home: no
    // tiny home has a broken CPE, so no cpe_fix variant re-plans a home and
    // all 25 share the 6 shards.
    EXPECT_EQ(cache.size(), 107u) << at;

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

  EXPECT_EQ(stats.executed, 0u);
  EXPECT_EQ(stats.cached, 15u);  // 3 variants x 5 passes, all warm
  for (std::size_t v = 0; v < cfgs.size(); ++v) {
    EXPECT_EQ(serialize_pipe(cfgs[v], *pipes[v]), expected[v])
        << "variant " << v;
  }
  // Nothing is erased: 1 shared sample + 3 variants x 4 passes = 13 pass
  // entries. The 6 homes' shards are the other 6: no tiny home has a
  // broken CPE, so the cpe_fix variants change no plan and all three share
  // one shard per home. 13 + 6 = 19.
  EXPECT_EQ(cache.size(), 19u);
}

}  // namespace
