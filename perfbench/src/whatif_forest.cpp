// whatif_forest: an overlapped what-if forest on the pass graph.
//
// Input: the sweep_scenarios shape, 25 variants of a 48-home x 42-day base
// (variant v > 0 appends one cpe_fix wave with repair fraction v / 25), seed
// from --seed. Timed: fresh pipelines and a fresh PassCache run through
// engine::ForestScheduler::run with scenario_transient_resources()
// released. One pool of N - 1 workers serves the whole process, so at most
// N threads are ever alive (the scheduling thread waits while the forest
// runs). After the timed phase, a serial Pipeline::run loop over one shared
// PassCache, on the same pool plus the calling thread, is the reference:
// every variant of every timed iteration must serialize byte-identically
// (compared as FNV-1a digests of the canonical text, so the timed phase holds
// no serializations).
//
// The traced run times the serial chain through the stage functions (the
// base population sampled once, as the cache shares it; then timeline,
// simulate, metrics, report and window panel per variant) and compares it
// with the serial pipeline loop to report the tracing overhead.
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "chain.h"
#include "core/fleet_analysis.h"
#include "core/scenario_pipeline.h"
#include "engine/fleet.h"
#include "engine/pipeline.h"
#include "engine/thread_pool.h"
#include "traffic/service_catalog.h"

namespace perfbench {

namespace {

using namespace nbv6;

struct Inputs {
  traffic::ServiceCatalog catalog = traffic::build_paper_catalog();
  std::vector<engine::FleetConfig> variants;
  std::unique_ptr<engine::ThreadPool> pool;
};

std::unique_ptr<Inputs> make_inputs(const Options& o) {
  auto in = std::make_unique<Inputs>();
  engine::FleetConfig base;
  base.residences = o.tiny ? 8 : 48;
  base.days = o.tiny ? 14 : 42;
  base.seed = 20260808 + o.seed;
  const int count = o.tiny ? 5 : 25;
  for (int v = 0; v < count; ++v) {
    engine::FleetConfig cfg = base;
    if (v > 0) {
      engine::TimelineEvent fix;
      fix.kind = engine::TimelineEventKind::cpe_fix;
      fix.start_day = cfg.days / 4;
      fix.end_day = cfg.days - 1;
      fix.fraction = static_cast<double>(v) / count;
      cfg.timeline->events.push_back(fix);
    }
    in->variants.push_back(std::move(cfg));
  }
  if (o.lanes > 1) in->pool = std::make_unique<engine::ThreadPool>(o.lanes - 1);
  return in;
}

// Digest of each variant's canonical serialization.
std::vector<std::uint64_t> digest_all(
    const Inputs& in, const std::vector<std::unique_ptr<engine::Pipeline>>& p) {
  std::vector<std::uint64_t> out;
  for (std::size_t v = 0; v < p.size(); ++v) {
    const engine::Pipeline& pipe = *p[v];
    out.push_back(fnv1a(canonical_text(
        in.variants[v], pipe.output<engine::FleetResult>("fleet_result"),
        pipe.output<core::FleetStatsReport>("stats_report"),
        pipe.output<core::GroupComparison>("window_panel"))));
  }
  return out;
}

std::vector<std::unique_ptr<engine::Pipeline>> make_pipelines(
    const Inputs& in) {
  std::vector<std::unique_ptr<engine::Pipeline>> pipes;
  for (const auto& cfg : in.variants)
    pipes.push_back(std::make_unique<engine::Pipeline>(
        core::make_scenario_pipeline(cfg, in.catalog)));
  return pipes;
}

// The serial chain through the stage functions: the base population
// sampled once (the cache shares it across variants), then every variant's
// passes. Every variant's outputs stay alive to the end, as in the serial
// pipeline loop, whose pipelines keep their resources bound.
double traced_forest(const Inputs& in, PassSpans& spans,
                     std::vector<std::uint64_t>& digests) {
  std::vector<std::unique_ptr<ChainOutputs>> kept;
  const auto t0 = Clock::now();
  const engine::SampledFleet population =
      traced_sample(in.catalog, in.variants.front(), spans);
  for (const auto& cfg : in.variants) {
    kept.push_back(std::make_unique<ChainOutputs>());
    traced_chain(in.catalog, cfg, population, in.pool.get(), *kept.back(),
                 spans);
  }
  const double wall = since(t0);
  for (std::size_t v = 0; v < kept.size(); ++v)
    digests.push_back(fnv1a(canonical_text(in.variants[v], kept[v]->result,
                                           kept[v]->report, kept[v]->panel)));
  return wall;
}

}  // namespace

int run_whatif_forest(const Options& o, Report& rep) {
  const auto in = make_inputs(o);
  if (inputs_ready(o)) return 0;
  rep.check_thread_budget(o);
  const auto& base = in->variants.front();
  rep.note("whatif_forest: " + std::to_string(in->variants.size()) +
           " variants of " + std::to_string(base.residences.get()) +
           " homes x " + std::to_string(base.days.get()) + " days, seed " +
           std::to_string(base.seed.get()) + ", forest on a pool of " +
           std::to_string(o.lanes - 1) + " + the scheduling thread");

  std::vector<double> walls;
  double hwm = 0.0;
  engine::ForestScheduler::Stats fstats;
  std::size_t cache_entries = 0;
  std::vector<std::pair<std::size_t, std::vector<std::uint64_t>>> outputs;

  repeat_for(o.seconds, 1, [&](int) {
    fresh_heap();
    const std::size_t op = rep.begin_op();
    const auto t0 = Clock::now();
    engine::PassCache cache;
    auto pipes = make_pipelines(*in);
    std::vector<engine::Pipeline*> ptrs;
    for (auto& p : pipes) ptrs.push_back(p.get());
    engine::ForestScheduler::Options fo;
    fo.pool = in->pool.get();
    fo.workers = o.lanes;
    fo.transient = core::scenario_transient_resources();
    fstats = engine::ForestScheduler::run(ptrs, cache, fo);
    walls.push_back(since(t0));
    hwm = std::max(hwm, peak_rss_mb());

    std::uint64_t samples = 0;
    for (const auto& p : pipes) samples += p->executions("sample");
    rep.check(op, "forest sampled the base population once", samples == 1);
    cache_entries = cache.size();
    outputs.emplace_back(op, digest_all(*in, pipes));
  });
  rep.check_thread_budget(o);

  // Reference: the serial loop over one shared cache.
  fresh_heap();
  std::vector<std::uint64_t> reference;
  double serial_s = 0.0;
  {
    const auto t0 = Clock::now();
    engine::PassCache cache;
    auto pipes = make_pipelines(*in);
    for (auto& p : pipes) p->run(&cache, in->pool.get());
    serial_s = since(t0);
    reference = digest_all(*in, pipes);
  }
  for (const auto& [op, digests] : outputs) {
    for (std::size_t v = 0; v < digests.size(); ++v)
      rep.check(op, "variant " + std::to_string(v) +
                        " overlapped output == serial reference",
                digests[v] == reference[v]);
  }

  const double wall = fastest(walls);
  rep.fastest_metric("wall_s", walls, "s");
  rep.metric("peak_rss_mb", hwm, "MB");
  if (!o.trace) return 0;

  fresh_heap();
  const std::size_t op = rep.begin_op();
  PassSpans l;
  std::vector<std::uint64_t> traced_digests;
  const double traced_s = traced_forest(*in, l, traced_digests);
  for (std::size_t v = 0; v < traced_digests.size(); ++v)
    rep.check(op, "variant " + std::to_string(v) +
                      " traced chain output == serial reference",
              traced_digests[v] == reference[v]);

  const double bound = static_cast<double>(fstats.executed + fstats.cached +
                                           fstats.deduped);
  rep.metric("engine.sample.s", l.sample, "s");
  rep.metric("engine.timeline.s", l.timeline, "s");
  rep.metric("engine.simulate.s", l.simulate, "s");
  rep.metric("engine.simulate.rss_mb", l.simulate_rss, "MB");
  rep.metric("core.metrics.s", l.metrics, "s");
  rep.metric("core.report.s", l.report, "s");
  rep.metric("core.window_panel.s", l.panel, "s");
  rep.metric("engine.pipeline.serial_s", serial_s, "s");
  rep.metric("engine.forest.speedup", serial_s / wall, "x");
  rep.metric("engine.forest.executed", static_cast<double>(fstats.executed),
             "count");
  rep.metric("engine.forest.cached", static_cast<double>(fstats.cached),
             "count");
  rep.metric("engine.forest.deduped", static_cast<double>(fstats.deduped),
             "count");
  rep.metric("engine.forest.released", static_cast<double>(fstats.released),
             "count");
  rep.metric("engine.forest.peak_resident",
             static_cast<double>(fstats.peak_resident), "count");
  rep.metric("engine.forest.reuse_ratio",
             (static_cast<double>(fstats.cached + fstats.deduped)) / bound,
             "ratio");
  rep.metric("engine.pass_cache.entries", static_cast<double>(cache_entries),
             "count");
  rep.metric("trace.overhead_s", traced_s - serial_s, "s");
  rep.note("forest reuse: (cached + deduped) / passes bound, over " +
           std::to_string(static_cast<long long>(bound)) + " passes");
  return 0;
}

}  // namespace perfbench
