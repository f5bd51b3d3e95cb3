// Standard scenario passes for the pass-graph pipeline runtime.
//
// engine/pipeline.h supplies the type-agnostic DAG scheduler; this header
// registers the concrete scenario chain on it:
//
//   sample        ->  "population"     (engine::SampledFleet)
//   timeline      ->  "planned_fleet"  (engine::SampledFleet)
//   simulate      ->  "fleet_result"   (engine::FleetResult)
//   report        ->  "stats_report"   (core::FleetStatsReport)
//   window_panel  ->  "window_panel"   (core::GroupComparison)
//
// Every pass wraps the one production stage function (sample_stage,
// apply_timeline, simulate_fleet, fleet_stats_report, compare_windows), and
// the whole-horizon metric matrix is the report's `matrix` member.
// Pipeline::run is how a scenario runs end to end: the golden-replay suite
// pins its output byte for byte at 1, 4 and 8 lanes. The chain has no
// knobs: the report and the window panel are Holm-corrected at alpha =
// 0.05, and the panel compares the horizon's two halves (panel_windows).
//
// The config digests draw a deliberate line through FleetConfig: the
// sample pass digests only the population slice (residences, seed,
// fractions, arrivals, horizon, catalog content), the timeline pass only
// the timeline slice (events, seed, horizon). Scenario variants that
// differ only in their timeline therefore share one cached sample pass —
// the base population is sampled once per sweep, not once per variant.
#pragma once

#include <string>
#include <vector>

#include "core/fleet_analysis.h"
#include "engine/config_tracking.h"
#include "engine/fleet.h"
#include "engine/pipeline.h"
#include "traffic/service_catalog.h"

namespace nbv6::core {

// ---------------------------------------------------------- registration

/// A fresh pipeline with the standard scenario chain registered. `cfg` is
/// captured by value; `catalog` by reference and must outlive the
/// pipeline. Digests are derived from the captured config, so a changed
/// config means a new pipeline (or a pass swapped in with
/// Pipeline::replace), never mutated shared state.
engine::Pipeline make_scenario_pipeline(const engine::FleetConfig& cfg,
                                        const traffic::ServiceCatalog& catalog);

/// The pre/post windows the "window_panel" pass compares: the horizon's
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

// ------------------------------------------------------------- auditing

/// One standard pass's observed FleetConfig read sets: which fields its
/// digest slice covered (recorded while the pass was built, which is when
/// its config digest is computed) and which fields its body actually read
/// (recorded while the pass ran).
struct PassReadAudit {
  std::string pass;
  engine::ConfigReadSet digest_reads;
  engine::ConfigReadSet run_reads;
};

/// Run the standard scenario passes (the same list make_scenario_pipeline
/// registers) once, inline and uncached, under config read tracking, and
/// report each pass's digest_reads vs run_reads, in registration order.
/// This is the enforcement side of the digest-slice contract documented at
/// the top of this header: tests/digest_audit_test.cpp fails when any pass
/// reads a field its digest slice misses — the PR 8/9 stale-cache class.
std::vector<PassReadAudit> audit_scenario_passes(
    const engine::FleetConfig& cfg, const traffic::ServiceCatalog& catalog);

/// Fields the pass body read that its digest slice does not cover. A
/// non-empty result is a stale-cache bug. (Lane count is not a config
/// field: it belongs to the run, so no digest can depend on it.)
engine::ConfigReadSet uncovered_config_reads(const PassReadAudit& audit);

/// "days, seed, timeline"-style rendering for audit failure messages.
std::string describe_read_set(const engine::ConfigReadSet& reads);

}  // namespace nbv6::core
