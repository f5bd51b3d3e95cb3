// Shared test utilities: fleet builders and canonical serializers.
//
// The golden-replay suite needs two things no production header provides:
// a one-call "run this scenario file end to end" builder (the scenario
// pipeline, outputs copied out), and a canonical text form of the whole
// outcome whose equality is exactly bit-equality of the underlying state.
// Both live here so future conformance tests (and ad-hoc debugging — the
// serializer makes any two runs diffable) reuse them instead of growing
// private copies.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fleet_analysis.h"
#include "engine/fleet.h"
#include "engine/pipeline.h"
#include "engine/thread_pool.h"
#include "engine/timeline.h"
#include "traffic/residence.h"
#include "traffic/service_catalog.h"

namespace nbv6::testutil {

// ------------------------------------------------------------------ paths

/// Repo source root (the NBV6_SOURCE_DIR compile definition).
std::string source_dir();
/// Committed scenario configs: <source>/examples/scenarios.
std::string scenarios_dir();
/// Committed golden replays: <source>/tests/golden.
std::string golden_dir();

/// Absolute paths of every *.cfg under scenarios_dir(), sorted by name so
/// iteration order never depends on directory enumeration order.
std::vector<std::string> scenario_files();

/// "rollout_wave" from ".../rollout_wave.cfg".
std::string scenario_stem(const std::string& path);

// ---------------------------------------------------------------- builder

/// One scenario run, end to end: the sampled + timeline-applied fleet
/// simulated on `lanes` lanes, with the full statistics report and a
/// pre/post panel over the horizon's two halves (the day-dimension check).
struct ScenarioRun {
  engine::FleetConfig cfg;
  engine::FleetResult result;
  core::FleetStatsReport report;
  core::GroupComparison window_panel;
};

/// How the timeline's day plans reach the simulator in run_scenario.
enum class PlanSource {
  /// engine::apply_timeline's lazy providers (production).
  lazy,
  /// Plans materialized up front by materialize_day_plans: the reference.
  materialized,
};

/// With PlanSource::lazy, runs the scenario chain
/// (core::make_scenario_pipeline) on `lanes` lanes and copies out its
/// fleet_result, stats_report and window_panel. With
/// PlanSource::materialized, calls the chain's stage functions here instead
/// (sample_stage, then providers that index materialize_day_plans' vectors,
/// simulate_fleet, the report and the window panel): the test-side parity
/// reference, which must serialize byte-identically to the chain — the
/// parity the golden-replay suite pins. Uncached unless a `cache` is given,
/// in which case the chain looks up and stores its population and residence
/// shards there (the reference, its shards only).
ScenarioRun run_scenario(const engine::FleetConfig& cfg,
                         const traffic::ServiceCatalog& catalog, int lanes,
                         PlanSource plans = PlanSource::lazy,
                         engine::PassCache* cache = nullptr);

/// How many of the scenario chain's five resources `pipe` has bound, each
/// read by name and type through Pipeline::output: 5 after a successful
/// run, 0 before any run and after a failed one.
int bound_resources(const engine::Pipeline& pipe);

/// The stage chain alone, for tests that need only the FleetResult:
/// sample_stage → apply_timeline → simulate_fleet on `pool` (nullptr =
/// sequential).
engine::FleetResult simulate_scenario(const engine::FleetConfig& cfg,
                                      const traffic::ServiceCatalog& catalog,
                                      engine::ThreadPool* pool);

// ------------------------------------------------------ materialized plans

/// Every residence's DayPlan for days [0, days), computed eagerly cell by
/// cell through engine::timeline_day_plan — which redraws each event per
/// call, where apply_timeline's lazy providers capture the draws once per
/// residence. plans[i][d] is residence i's plan on day d. The reference
/// the lazy providers are checked against.
std::vector<std::vector<traffic::DayPlan>> materialize_day_plans(
    const engine::SampledFleet& fleet, const engine::Timeline& tl,
    std::uint64_t seed, int days);

/// Lazy providers vs materialized plans, cell by cell: sample `cfg`'s
/// fleet, apply its timeline, and require every (residence, day) DayPlan
/// equal to materialize_day_plans', a second evaluation equal to the first
/// (providers are pure), kStaticDayPlan on either side of the horizon, and
/// no provider at all for an empty timeline. nullopt on success; otherwise
/// the first mismatching cell.
std::optional<std::string> check_plan_parity(
    const engine::FleetConfig& cfg, const traffic::ServiceCatalog& catalog);

// ------------------------------------------------------------- serializer

/// Canonical, diff-friendly text form of a run. Every double renders with
/// %.17g (equal text iff bit-identical doubles); high-volume aggregates
/// (the hourly series, per-destination tallies) fold to a count plus an
/// order-stable FNV-1a checksum over their integer state. Lane count is
/// deliberately absent: serializations of the same scenario at different
/// lane counts must be byte-identical.
std::string canonical_serialize(const ScenarioRun& run);

// ------------------------------------------------------- fuzz differential

/// The full differential check the scenario fuzzer runs on one generated
/// config text, in order:
///   1. parse -> render -> reparse round trip (engine::check_parse_round_trip)
///   2. lazy vs materialized day plans, cell by cell (check_plan_parity)
///   3. byte-identical canonical serializations across 1/4/8-lane replays
///      and across lazy vs materialized simulation of the 1-lane run
///   4. shard-reuse parity: a twin with the last timeline event dropped
///      (or one cpe_fix added when there is none) runs first on a fresh
///      PassCache, then the config on the same cache (reusing the twin's
///      sample and shards) must serialize to the uncached 1-lane text
///   5. windowed extract_metrics finiteness: over the full horizon, both
///      halves, first/middle/last single days, and every event's clamped
///      window, no metric may be +-inf, and count/sum metrics (sessions_k,
///      external_gb, ...) may not be NaN either — only rate/fraction
///      metrics may be undefined when a window saw no traffic.
/// nullopt when every check passes; otherwise a description of the first
/// failure, prefixed with the stage that caught it.
std::optional<std::string> fuzz_check_scenario(
    const std::string& text, const traffic::ServiceCatalog& catalog);

// ------------------------------------------------------------------- io

std::optional<std::string> read_file(const std::string& path);
bool write_file(const std::string& path, std::string_view content);

/// Human-readable location of the first difference ("line N:\n  a: ...\n
/// b: ..."), empty when equal. Keeps golden-mismatch failures readable
/// instead of dumping two multi-kilobyte blobs.
std::string first_diff(std::string_view a, std::string_view b);

}  // namespace nbv6::testutil
