// The scenario chain's stage functions and analysis settings: the one
// place that knows them. engine::Pipeline (engine/pipeline.h, which lists
// the stages and their resources) is run by scenario_pipeline.cpp:
// sample_stage (cached under engine::population_key), apply_timeline on a
// copy, simulate_fleet (residence shards cached under engine::shard_key),
// fleet_stats_report, then compare_windows over panel_windows(days). Both
// analyses are Holm-corrected at kScenarioAlpha. The golden-replay suite
// pins the chain's output byte for byte at 1, 4 and 8 lanes, and
// digest_audit_test proves both cache keys by mutating every field they
// must cover.
#pragma once

#include <string>
#include <vector>

#include "core/fleet_analysis.h"
#include "engine/fleet.h"
#include "engine/pipeline.h"
#include "traffic/service_catalog.h"

namespace nbv6::core {

/// Holm-correction level of the chain's report and window panel.
inline constexpr double kScenarioAlpha = 0.05;

/// The scenario chain for `cfg` (copied). `catalog` is held by reference
/// and must outlive the pipeline. A changed config means a new pipeline.
engine::Pipeline make_scenario_pipeline(const engine::FleetConfig& cfg,
                                        const traffic::ServiceCatalog& catalog);

/// The pre/post windows the "window_panel" stage compares: the horizon's
/// two halves, pre = [0, days/2 - 1] and post = [days/2, days - 1].
struct PanelWindows {
  DayWindow pre;
  DayWindow post;
};
inline PanelWindows panel_windows(int days) {
  return {{0, days / 2 - 1}, {days / 2, days - 1}};
}

/// The scenario chain's intermediates, {"population", "planned_fleet"}:
/// resources no caller reads back after a run. Kept for callers that fill
/// engine::ForestScheduler::Options::transient, which the forest ignores.
std::vector<std::string> scenario_transient_resources();

}  // namespace nbv6::core
