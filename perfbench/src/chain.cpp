#include "chain.h"

#include <algorithm>

#include "bench.h"
#include "engine/run_spec.h"
#include "engine/timeline.h"
#include "testutil.h"

namespace perfbench {

using namespace nbv6;

engine::SampledFleet traced_sample(const traffic::ServiceCatalog& catalog,
                                   const engine::FleetConfig& cfg,
                                   PassSpans& spans) {
  const auto t = Clock::now();
  engine::SampledFleet population = engine::sample_stage(cfg, catalog);
  spans.sample += since(t);
  return population;
}

void traced_chain(const traffic::ServiceCatalog& catalog,
                  const engine::FleetConfig& cfg,
                  const engine::SampledFleet& population,
                  engine::ThreadPool* pool, ChainOutputs& out,
                  PassSpans& spans) {
  const auto metrics = core::default_fleet_metrics();

  auto t = Clock::now();
  out.planned = population;  // the timeline pass plans onto a copy too
  engine::apply_timeline(out.planned, cfg.timeline, cfg.seed, cfg.days);
  spans.timeline += since(t);

  const double rss0 = rss_mb();
  t = Clock::now();
  out.result = engine::simulate_fleet(catalog, out.planned, pool);
  spans.simulate += since(t);
  spans.simulate_rss = std::max(spans.simulate_rss, rss_mb() - rss0);

  t = Clock::now();
  out.matrix = core::extract_metrics(out.result, metrics, pool);
  spans.metrics += since(t);

  t = Clock::now();
  out.report = core::fleet_stats_report(out.result, pool, 0.05);
  spans.report += since(t);

  // The window panel compares the horizon's two halves.
  t = Clock::now();
  out.panel = core::compare_windows(out.result, metrics, {0, cfg.days / 2 - 1},
                                    {cfg.days / 2, cfg.days - 1},
                                    core::FleetGroup::all, pool, 0.05);
  spans.panel += since(t);
}

std::string canonical_text(const engine::FleetConfig& cfg,
                           const engine::FleetResult& result,
                           const core::FleetStatsReport& report,
                           const core::GroupComparison& panel) {
  testutil::ScenarioRun run;
  run.cfg = cfg;
  run.result = result;
  run.report = report;
  run.window_panel = panel;
  return testutil::canonical_serialize(run);
}

}  // namespace perfbench
