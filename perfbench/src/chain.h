// The scenario pass chain through the stage functions the pass graph wraps
// (core/scenario_pipeline.cpp), one span around each call: the traced
// counterpart of Pipeline::run for fleet_year and whatif_forest.
#pragma once

#include <string>

#include "core/fleet_analysis.h"
#include "engine/fleet.h"
#include "engine/thread_pool.h"
#include "traffic/service_catalog.h"

namespace perfbench {

/// Seconds per pass, summed over calls; simulate_rss is the largest VmRSS
/// growth (MB) across one simulate_fleet call.
struct PassSpans {
  double sample = 0, timeline = 0, simulate = 0, simulate_rss = 0;
  double metrics = 0, report = 0, panel = 0;
};

/// What a scenario pipeline binds downstream of "population".
struct ChainOutputs {
  nbv6::engine::SampledFleet planned;
  nbv6::engine::FleetResult result;
  nbv6::core::FleetMetricMatrix matrix;
  nbv6::core::FleetStatsReport report;
  nbv6::core::GroupComparison panel;
};

/// Sample `cfg`'s population, timing it into spans.sample.
nbv6::engine::SampledFleet traced_sample(
    const nbv6::traffic::ServiceCatalog& catalog,
    const nbv6::engine::FleetConfig& cfg, PassSpans& spans);

/// timeline -> simulate -> metrics -> report -> window_panel on a copy of
/// `population`, exactly as the standard passes compute them.
void traced_chain(const nbv6::traffic::ServiceCatalog& catalog,
                  const nbv6::engine::FleetConfig& cfg,
                  const nbv6::engine::SampledFleet& population,
                  nbv6::engine::ThreadPool* pool, ChainOutputs& out,
                  PassSpans& spans);

/// testutil::canonical_serialize of one scenario's outputs: the text the
/// golden-replay suite pins. Copies `result`.
std::string canonical_text(const nbv6::engine::FleetConfig& cfg,
                           const nbv6::engine::FleetResult& result,
                           const nbv6::core::FleetStatsReport& report,
                           const nbv6::core::GroupComparison& panel);

}  // namespace perfbench
