// Standard scenario passes for the pass-graph pipeline runtime.
//
// engine/pipeline.h supplies the type-agnostic DAG scheduler; this header
// registers the concrete scenario chain on it:
//
//   sample        ->  "population"     (engine::SampledFleet)
//   timeline      ->  "planned_fleet"  (engine::SampledFleet)
//   simulate      ->  "fleet_result"   (engine::FleetResult)
//   metrics       ->  "metric_matrix"  (core::FleetMetricMatrix)
//   report        ->  "stats_report"   (core::FleetStatsReport)
//   window_panel  ->  "window_panel"   (core::GroupComparison)
//
// and, when a sink directory is configured, three uncached file-sink
// passes ("panel_tsv", "cdf_csv", "summary_csv") that render the report
// into figure-ready files and output the written paths.
//
// Every pass wraps the one production stage function (sample_stage,
// apply_timeline, simulate_fleet, extract_metrics, fleet_stats_report,
// compare_windows, write_*), and Pipeline::run is how a scenario runs end
// to end: the golden-replay suite pins its output byte for byte at 1, 4
// and 8 lanes.
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

/// Knobs for the standard passes.
struct ScenarioPassOptions {
  /// Holm-correction level for the report and window panel.
  double alpha = 0.05;
  /// Non-empty: also register the three file-sink passes, writing
  /// <sink_dir>/<scenario_tag>_{panel.tsv,cdf.csv,summary.csv}. Sink
  /// passes are never cached (they exist for their side effect).
  std::string sink_dir;
  /// File-name prefix for sink outputs (e.g. the scenario stem).
  std::string scenario_tag = "scenario";
};

/// A fresh pipeline with the standard scenario chain registered. `cfg` is
/// captured by value; `catalog` by reference and must outlive the
/// pipeline. Digests are derived from the captured config, so a pipeline
/// is dirtied by re-registering (Pipeline::replace via
/// replace_scenario_config) rather than by mutating shared state.
engine::Pipeline make_scenario_pipeline(const engine::FleetConfig& cfg,
                                        const traffic::ServiceCatalog& catalog,
                                        const ScenarioPassOptions& opts = {});

/// Resource names safe to release mid-forest (engine::ForestScheduler's
/// Options::transient): intermediates every scenario pipeline consumes
/// exactly once and no caller reads back after the run. "population" and
/// "planned_fleet" are whole sampled fleets — the forest's dominant RSS
/// term — while "fleet_result"/"stats_report"/"window_panel" stay bound
/// (they are what a sweep exists to read).
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

/// Run the six standard scenario passes once, inline and uncached, under
/// config read tracking, and report each pass's digest_reads vs run_reads.
/// File-sink passes are not registered (they read paths, not config).
/// This is the enforcement side of the digest-slice contract documented at
/// the top of this header: tests/digest_audit_test.cpp fails when any pass
/// reads a field its digest slice misses — the PR 8/9 stale-cache class.
std::vector<PassReadAudit> audit_scenario_passes(
    const engine::FleetConfig& cfg, const traffic::ServiceCatalog& catalog,
    const ScenarioPassOptions& opts = {});

/// Fields the pass body read that its digest slice does not cover. A
/// non-empty result is a stale-cache bug. (Lane count is not a config
/// field: it belongs to the run, so no digest can depend on it.)
engine::ConfigReadSet uncovered_config_reads(const PassReadAudit& audit);

/// "days, seed, timeline"-style rendering for audit failure messages.
std::string describe_read_set(const engine::ConfigReadSet& reads);

/// Swap a new scenario config into an already-registered pipeline,
/// replacing the sample/timeline/window passes in place (execution
/// counters survive — the sweep driver's per-pass reuse assertions count
/// across variants this way). Passes whose config slice is unchanged keep
/// their digest and therefore stay cache-warm.
void replace_scenario_config(engine::Pipeline& pipe,
                             const engine::FleetConfig& cfg,
                             const traffic::ServiceCatalog& catalog,
                             const ScenarioPassOptions& opts = {});

}  // namespace nbv6::core
