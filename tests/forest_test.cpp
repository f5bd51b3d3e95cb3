// ForestScheduler: overlapped cross-variant pass scheduling over one shared
// PassCache — byte-identical to the serial per-pipeline loop at any worker
// count, with in-flight dedup and transient resource release asserted via
// execution counters and shared_ptr use counts.
#include <gtest/gtest.h>

#include <atomic>
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

// Pass bodies may execute on pool workers, so counters are atomic.
Pass count_pass(std::string name, std::vector<std::string> inputs,
                std::vector<std::string> outputs,
                std::atomic<int>* counter = nullptr,
                std::uint64_t config_digest = 0) {
  Pass p;
  p.name = std::move(name);
  p.inputs = std::move(inputs);
  p.outputs = std::move(outputs);
  p.config_digest = config_digest;
  p.run = [outputs = p.outputs, counter](PassContext& ctx) {
    if (counter != nullptr) counter->fetch_add(1);
    for (const auto& out : outputs) ctx.out(out, int{1});
  };
  return p;
}

// ------------------------------------------------------- in-flight dedup

// Two pipelines share one digest-identical generator pass but diverge
// downstream. The forest must run the generator exactly once — the second
// pipeline binds the in-flight twin's result, not a second execution.
TEST(ForestScheduler, DedupsDigestIdenticalPassesAcrossPipelines) {
  std::atomic<int> gen_runs{0};
  std::atomic<int> use1_runs{0};
  std::atomic<int> use2_runs{0};

  Pipeline p1;
  p1.add(count_pass("gen", {}, {"base"}, &gen_runs));
  p1.add(count_pass("use", {"base"}, {"out"}, &use1_runs, /*digest=*/1));
  Pipeline p2;
  p2.add(count_pass("gen", {}, {"base"}, &gen_runs));
  p2.add(count_pass("use", {"base"}, {"out"}, &use2_runs, /*digest=*/2));

  engine::ThreadPool pool(2);
  PassCache cache;
  ForestScheduler::Options opts;
  opts.pool = &pool;
  opts.workers = 2;
  const auto stats = ForestScheduler::run({&p1, &p2}, cache, opts);

  EXPECT_EQ(gen_runs.load(), 1);
  EXPECT_EQ(use1_runs.load(), 1);
  EXPECT_EQ(use2_runs.load(), 1);
  EXPECT_EQ(p1.executions("gen") + p2.executions("gen"), 1u);
  EXPECT_EQ(stats.executed, 3u);
  // Both gen twins are seed-ready before anything executes, so the second
  // is always an in-flight waiter, never a cache hit.
  EXPECT_EQ(stats.deduped, 1u);
  EXPECT_EQ(stats.cached, 0u);
  EXPECT_EQ(p1.output<int>("out"), 1);
  EXPECT_EQ(p2.output<int>("out"), 1);
}

// ------------------------------------------------------- warm-cache seed

// Regression: seeding against a pre-warmed cache completes frontier nodes
// synchronously, and finish_node's recursion completes their dependents
// before the seed loop reaches them. on_ready must fire once per node —
// double-firing double-counted done_count_ (a phantom "stalled" error),
// double-bound outputs, and double-decremented transient refcounts.
TEST(ForestScheduler, WarmCacheSeedCompletesEachNodeOnce) {
  std::atomic<int> gen_runs{0};
  std::atomic<int> mid_runs{0};
  auto make_pipe = [&](std::uint64_t use_digest) {
    auto pipe = std::make_unique<Pipeline>();
    pipe->add(count_pass("gen", {}, {"base"}, &gen_runs));
    pipe->add(count_pass("mid", {"base"}, {"refined"}, &mid_runs));
    pipe->add(count_pass("use", {"refined"}, {"out"}, nullptr, use_digest));
    return pipe;
  };

  for (int workers : {1, 2}) {
    PassCache cache;
    {  // Serial warm-up: every digest in both variants lands in the cache.
      auto w1 = make_pipe(1);
      auto w2 = make_pipe(2);
      w1->run(&cache);
      w2->run(&cache);
    }
    gen_runs = 0;
    mid_runs = 0;

    std::unique_ptr<engine::ThreadPool> pool;
    if (workers > 1) pool = std::make_unique<engine::ThreadPool>(workers);
    auto p1 = make_pipe(1);
    auto p2 = make_pipe(2);
    ForestScheduler::Options opts;
    opts.pool = pool.get();
    opts.workers = workers;
    const auto stats = ForestScheduler::run({p1.get(), p2.get()}, cache, opts);

    // Fully warm: every node binds from cache, exactly once, nothing runs.
    EXPECT_EQ(stats.cached, 6u) << workers << " workers";
    EXPECT_EQ(stats.executed, 0u) << workers << " workers";
    EXPECT_EQ(stats.deduped, 0u) << workers << " workers";
    EXPECT_EQ(gen_runs.load(), 0) << workers << " workers";
    EXPECT_EQ(mid_runs.load(), 0) << workers << " workers";
    EXPECT_EQ(p1->output<int>("out"), 1);
    EXPECT_EQ(p2->output<int>("out"), 1);
  }
}

// ---------------------------------------------------- transient release

// A payload type whose liveness the test can observe from outside: the
// pass wraps a copy of the test's shared token, so the token's use_count
// tracks how many pipeline/cache handles still exist.
struct Tracked {
  std::shared_ptr<int> token;
};

TEST(ForestScheduler, ReleasesTransientAfterLastConsumer) {
  auto token = std::make_shared<int>(7);

  Pipeline pipe;
  Pass gen;
  gen.name = "gen";
  gen.outputs = {"tmp"};
  gen.run = [token](PassContext& ctx) { ctx.out("tmp", Tracked{token}); };
  pipe.add(std::move(gen));
  pipe.add(count_pass("use", {"tmp"}, {"final"}));

  PassCache cache;
  ForestScheduler::Options opts;
  opts.transient = {"tmp"};
  const auto stats = ForestScheduler::run({&pipe}, cache, opts);

  // Released: unbound from the pipeline and erased from the cache — the
  // test's own token is the only remaining reference. (The gen lambda
  // holds `token` itself, not the wrapped copy, so it contributes the
  // baseline count of 2: test + lambda.)
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_EQ(stats.released, 1u);
  EXPECT_EQ(stats.peak_resident, 1u);
  EXPECT_THROW((void)pipe.output_value("tmp"), std::logic_error);
  EXPECT_EQ(pipe.output<int>("final"), 1);
  // gen's cache entry was erased; use's survives.
  EXPECT_EQ(cache.size(), 1u);
}

// A transient shared by two pipelines (digest-identical producer) is
// released only after the *forest-wide* last consumer — and releasing
// drops every holder's handle plus the cache entry.
TEST(ForestScheduler, SharedTransientReleasedForestWide) {
  auto token = std::make_shared<int>(9);

  auto make_pipe = [&token](std::uint64_t use_digest) {
    auto pipe = std::make_unique<Pipeline>();
    Pass gen;
    gen.name = "gen";
    gen.outputs = {"base"};
    gen.run = [token](PassContext& ctx) { ctx.out("base", Tracked{token}); };
    pipe->add(std::move(gen));
    pipe->add(count_pass("use", {"base"}, {"out"}, nullptr, use_digest));
    return pipe;
  };
  auto p1 = make_pipe(1);
  auto p2 = make_pipe(2);

  engine::ThreadPool pool(2);
  PassCache cache;
  ForestScheduler::Options opts;
  opts.pool = &pool;
  opts.workers = 2;
  opts.transient = {"base"};
  const auto stats = ForestScheduler::run({p1.get(), p2.get()}, cache, opts);

  // Two lambdas hold the raw token; every wrapped copy (two bound_ entries
  // and the cache entry) is gone.
  EXPECT_EQ(token.use_count(), 3);
  EXPECT_EQ(stats.released, 1u);
  EXPECT_EQ(p1->output<int>("out"), 1);
  EXPECT_EQ(p2->output<int>("out"), 1);
  EXPECT_EQ(cache.size(), 2u);  // the two use passes
}

// A consumerless transient shared by two digest-identical producers must
// not be released (and its cache entry evicted) until *both* producing
// pipelines have bound it — early release forced the twin to re-execute
// the deduped pass and double-counted stats.released.
TEST(ForestScheduler, ConsumerlessSharedTransientReleasedOnceAfterAllProducers) {
  auto token = std::make_shared<int>(3);
  std::atomic<int> gen_runs{0};

  auto make_pipe = [&]() {
    auto pipe = std::make_unique<Pipeline>();
    Pass gen;
    gen.name = "gen";
    gen.outputs = {"tmp"};
    gen.run = [token, &gen_runs](PassContext& ctx) {
      gen_runs.fetch_add(1);
      ctx.out("tmp", Tracked{token});
    };
    pipe->add(std::move(gen));
    return pipe;
  };
  auto p1 = make_pipe();
  auto p2 = make_pipe();

  PassCache cache;
  ForestScheduler::Options opts;
  opts.transient = {"tmp"};
  const auto stats = ForestScheduler::run({p1.get(), p2.get()}, cache, opts);

  // One execution for the whole forest (the twin is an in-flight waiter),
  // one release, and no surviving handle beyond the two gen lambdas.
  EXPECT_EQ(gen_runs.load(), 1);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.deduped, 1u);
  EXPECT_EQ(stats.released, 1u);
  EXPECT_EQ(stats.peak_resident, 1u);
  EXPECT_EQ(token.use_count(), 3);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_THROW((void)p1->output_value("tmp"), std::logic_error);
  EXPECT_THROW((void)p2->output_value("tmp"), std::logic_error);
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
  opts.workers = 2;
  EXPECT_THROW(ForestScheduler::run({&ok, &bad}, cache, opts),
               std::runtime_error);
  // No partial state anywhere in the forest.
  EXPECT_THROW((void)ok.output_value("x"), std::logic_error);
  EXPECT_THROW((void)bad.output_value("y"), std::logic_error);
}

TEST(ForestScheduler, RejectsDuplicateAndNullPipelines) {
  Pipeline pipe;
  pipe.add(count_pass("a", {}, {"x"}));
  PassCache cache;
  EXPECT_THROW(ForestScheduler::run({&pipe, &pipe}, cache, {}),
               std::invalid_argument);
  EXPECT_THROW(ForestScheduler::run({nullptr}, cache, {}),
               std::invalid_argument);
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
    EXPECT_EQ(stats.deduped, 0u) << "call " << call;
    for (const auto& pass : pipe.schedule())
      EXPECT_EQ(pipe.executions(pass), call) << pass << ", call " << call;
    EXPECT_EQ(serialize_pipe(cfg, pipe), expected) << "call " << call;
  }
}

// The determinism pin: a 25-variant what-if forest run overlapped at 1, 2,
// and 8 workers produces byte-identical per-variant outputs to uncached
// per-variant runs (as does the serial loop over one shared cache, which
// shares the sample and every residence shard), samples the base
// population exactly once (asserted via execution counters — in-flight
// dedup, since every sample twin is seed-ready before any executes), and
// releases every transient fleet.
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
  // The serial loop over one shared cache, which reuses the sample and the
  // shards, must agree with the cold runs too.
  {
    PassCache cache;
    for (int v = 0; v < variants; ++v) {
      Pipeline pipe = core::make_scenario_pipeline(cfgs[v], catalog);
      pipe.run(&cache);
      EXPECT_EQ(serialize_pipe(cfgs[v], pipe), expected[v])
          << "serial variant " << v;
    }
  }

  for (int workers : {1, 2, 8}) {
    std::unique_ptr<engine::ThreadPool> pool;
    if (workers > 1) pool = std::make_unique<engine::ThreadPool>(workers);

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
    opts.workers = workers;
    opts.transient = core::scenario_transient_resources();
    const auto stats = ForestScheduler::run(ptrs, cache, opts);

    std::uint64_t sample_execs = 0;
    for (const auto& p : pipes) sample_execs += p->executions("sample");
    EXPECT_EQ(sample_execs, 1u) << workers << " workers";
    EXPECT_EQ(stats.deduped, static_cast<std::size_t>(variants - 1))
        << workers << " workers";
    // Every transient instance released: one shared population plus one
    // planned fleet per variant.
    EXPECT_EQ(stats.released, static_cast<std::size_t>(variants + 1))
        << workers << " workers";
    // The RSS cap: residency tracks the worker count, not the variant
    // count (serial depth-first holds exactly population + one planned
    // fleet; overlapped runs stay within a couple of the in-flight limit).
    if (workers == 1) {
      EXPECT_EQ(stats.peak_resident, 2u);
    } else {
      EXPECT_LE(stats.peak_resident, static_cast<std::size_t>(workers) + 3)
          << workers << " workers";
    }

    for (int v = 0; v < variants; ++v) {
      EXPECT_EQ(serialize_pipe(cfgs[v], *pipes[v]), expected[v])
          << "variant " << v << " @ " << workers << " workers";
    }
  }
}

// The warm-cache path on the real scenario chain, transients enabled:
// results must land exactly as if each pipeline had run alone against the
// same warm cache (the header's equivalence promise), and the transient
// entries leave the cache just as in the cold forest run. Regression for
// the seed-time double-on_ready bug, which only a pre-warmed cache hits.
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
  ForestScheduler::Options opts;
  opts.transient = core::scenario_transient_resources();
  const auto stats = ForestScheduler::run(ptrs, cache, opts);

  EXPECT_EQ(stats.executed, 0u);
  EXPECT_EQ(stats.cached, 15u);  // 3 variants x 5 passes, all warm
  for (std::size_t v = 0; v < cfgs.size(); ++v) {
    EXPECT_EQ(serialize_pipe(cfgs[v], *pipes[v]), expected[v])
        << "variant " << v;
  }
  // Transient release behaves as in the cold run: the shared sample entry
  // and the three timeline entries are erased, 9 pass entries survive. The
  // 6 homes' shards are the other 6: no tiny home has a broken CPE, so the
  // cpe_fix variants change no plan and all three share one shard per
  // home. 9 + 6 = 15.
  EXPECT_EQ(cache.size(), 15u);
}

// Transient release on the scenario chain observable from the cache side:
// the sample and timeline entries are erased once consumed, so a warm
// re-run re-executes them while the kept suffix still hits.
TEST(ForestScheduler, ScenarioTransientsLeaveCacheAfterForestRun) {
  const auto catalog = traffic::build_paper_catalog();
  const auto cfgs = variant_configs(3);

  PassCache cache;
  std::vector<std::unique_ptr<Pipeline>> pipes;
  std::vector<Pipeline*> ptrs;
  for (const auto& cfg : cfgs) {
    pipes.push_back(std::make_unique<Pipeline>(
        core::make_scenario_pipeline(cfg, catalog)));
    ptrs.push_back(pipes.back().get());
  }
  ForestScheduler::Options opts;
  opts.transient = core::scenario_transient_resources();
  ForestScheduler::run(ptrs, cache, opts);

  // 1 shared sample + 3 variants x 4 passes = 13 stored, minus the sample
  // and the 3 timelines (erased) = 9 surviving pass entries, plus one
  // "simulate.shard" entry per home (6; the three variants plan every home
  // alike, see above) = 15.
  EXPECT_EQ(cache.size(), 15u);

  // Warm serial re-run of variant 0: the released prefix re-executes, the
  // kept suffix binds from cache.
  const auto warm = pipes[0]->run(&cache);
  EXPECT_EQ(warm.executed, 2u);  // sample + timeline
  EXPECT_EQ(warm.cached, 3u);    // simulate, report, window_panel
}

}  // namespace
