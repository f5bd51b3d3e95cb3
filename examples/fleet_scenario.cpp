// fleet_scenario: simulate a whole deployment of residences and report
// population-level IPv6 adoption — the paper's §3 measurement scaled from
// five instrumented households to an ISP-sized fleet.
//
// Reads an optional key=value scenario config (see examples/fleet.cfg for
// every knob) and runs it through the scenario pipeline: sample the
// residence population deterministically from the scenario seed, apply the
// timeline, fan the simulation out over one monitor shard per residence,
// reduce the shard monitors into one fleet view, and build the
// statistics report and pre/post window panel.
//
// Closes with the fleet-statistics layer: population stratum sizes and the
// Holm-corrected Wilcoxon group-comparison panels (rank-sum between
// strata, signed-rank between paired metrics) — the paper's cross-
// residence comparisons at fleet scale.
//
//   ./build/example_fleet_scenario [scenario.cfg [threads]]
//
// `threads` is the lane count (default 0 = hardware concurrency, 1 =
// sequential, at most engine::kMaxLanes; anything else exits 2); the output
// is byte-identical for any value.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "core/client_analysis.h"
#include "core/fleet_analysis.h"
#include "core/scenario_pipeline.h"
#include "engine/fleet.h"
#include "engine/pipeline.h"
#include "engine/thread_pool.h"
#include "traffic/service_catalog.h"

using namespace nbv6;

int main(int argc, char** argv) {
  engine::FleetConfig cfg;  // defaults: 64 residences, 30 days
  if (argc > 1) {
    std::string error;
    auto loaded = engine::FleetConfig::load(argv[1], &error);
    if (!loaded) {
      std::fprintf(stderr, "failed to load scenario config: %s: %s\n",
                   argv[1], error.c_str());
      return 1;
    }
    cfg = *loaded;
  }
  int requested = 0;
  const bool parsed =
      argc <= 2 || engine::cfgparse::parse_int(argv[2], requested);
  const auto resolved =
      parsed ? engine::resolve_lanes(requested) : std::nullopt;
  if (!resolved) {
    std::fprintf(stderr,
                 "invalid lane count (second argument) %s: expected 0 "
                 "(hardware concurrency) to %d\n",
                 argv[2], engine::kMaxLanes);
    return 2;
  }
  const int lanes = *resolved;
  std::unique_ptr<engine::ThreadPool> pool;
  if (lanes > 1) pool = std::make_unique<engine::ThreadPool>(lanes - 1);

  auto catalog = traffic::build_paper_catalog();
  std::printf("fleet: %d residences x %d days on %d lane(s)\n",
              cfg.residences.get(), cfg.days.get(), lanes);
  if (!cfg.timeline->empty()) {
    std::printf("timeline:");
    for (const auto& ev : cfg.timeline->events)
      std::printf(" %s[%d..%d]", engine::to_string(ev.kind), ev.start_day,
                  std::min(ev.end_day, cfg.days - 1));
    std::printf("\n");
  }

  engine::Pipeline pipe = core::make_scenario_pipeline(cfg, catalog);
  pipe.run(nullptr, pool.get());
  const auto& result = pipe.output<engine::FleetResult>("fleet_result");
  std::printf("simulated %llu sessions, %llu flows (%llu invisible, %llu HE "
              "failures, %llu lost to outages, %llu to dark services, %llu "
              "to CGN exhaustion)\n",
              static_cast<unsigned long long>(result.totals.sessions),
              static_cast<unsigned long long>(result.totals.flows),
              static_cast<unsigned long long>(result.totals.skipped_invisible),
              static_cast<unsigned long long>(result.totals.he_failures),
              static_cast<unsigned long long>(
                  result.totals.outage_suppressed),
              static_cast<unsigned long long>(
                  result.totals.service_outage_failed),
              static_cast<unsigned long long>(result.totals.cgn_failures));

  // The day-resolved view of the same counters: the fleet-wide failure
  // peak, usually the tail of whatever the timeline scheduled.
  if (result.totals.he_failures > 0 && !result.totals.daily.empty()) {
    size_t peak = 0;
    for (size_t d = 1; d < result.totals.daily.size(); ++d)
      if (result.totals.daily[d].he_failures >
          result.totals.daily[peak].he_failures)
        peak = d;
    const auto& ds = result.totals.daily[peak];
    std::printf("peak HE-failure day: day %zu (%llu failures over %llu "
                "sessions, rate %.4f)\n",
                peak, static_cast<unsigned long long>(ds.he_failures),
                static_cast<unsigned long long>(ds.sessions),
                ds.sessions == 0 ? 0.0
                                 : static_cast<double>(ds.he_failures) /
                                       static_cast<double>(ds.sessions));
  }

  // The fleet's Table-1 row: the per-residence analysis runs unchanged on
  // the merged monitor.
  const auto fleet = core::analyze_residence("fleet", result.fleet);
  std::printf("\nfleet external traffic: %.1f GB, %.1f%% IPv6 by bytes, "
              "%.1f%% by flows\n",
              fleet.external.total_gb,
              100 * fleet.external.overall_byte_fraction,
              100 * fleet.external.overall_flow_fraction);
  std::printf("fleet daily byte fraction: mean %.3f, sd %.3f\n",
              fleet.external.daily_byte_fraction.mean,
              fleet.external.daily_byte_fraction.stddev);

  // Population distribution of per-residence adoption (the cross-residence
  // spread Table 1 shows for five homes, here for the whole fleet), from
  // the stats report. Vacant homes with background traffic count too.
  const auto& stats_report =
      pipe.output<core::FleetStatsReport>("stats_report");
  for (const auto& dist : stats_report.distributions) {
    if (dist.metric != core::FleetMetric::v6_byte_fraction) continue;
    const auto& by = dist.summary;
    std::printf("\nper-residence IPv6 byte fraction across %zu homes with "
                "external traffic:\n"
                "  mean %.3f  sd %.3f  p25 %.3f  median %.3f  p75 %.3f\n",
                by.count, by.mean, by.stddev, by.p25, by.median, by.p75);
  }

  // Fleet statistics: stratum sizes, then the Holm-corrected Wilcoxon
  // group-comparison panels over the per-residence shards. The paired
  // panel's flow- vs byte-fraction row is the paper's cross-home paired
  // comparison (Happy Eyeballs opens v6 control flows even where bytes go
  // v4).
  std::printf("\npopulation strata:");
  for (auto g : {core::FleetGroup::healthy_v6, core::FleetGroup::broken_cpe,
                 core::FleetGroup::v4_only, core::FleetGroup::heavy_streamer,
                 core::FleetGroup::opt_out, core::FleetGroup::active}) {
    std::printf(" %s=%zu", core::to_string(g),
                core::group_members(result.traits, g).size());
  }
  std::printf("\n");

  for (const auto& cmp : stats_report.comparisons) {
    std::printf("\n-- %s vs %s (unpaired rank-sum, Holm alpha=0.05) --\n",
                core::to_string(cmp.group_a), core::to_string(cmp.group_b));
    core::write_panel_tsv(stdout, cmp);
  }
  std::printf("\n-- paired metric panel over active homes --\n");
  core::write_panel_tsv(stdout, stats_report.paired);

  // With a timeline, compare the horizon's two halves per residence: the
  // before/after view of whatever the scenario scheduled (rollout waves,
  // fixes, migrations) with the paired signed-rank machinery.
  if (!cfg.timeline->empty() && cfg.days >= 2) {
    const auto [pre, post] = core::panel_windows(cfg.days);
    const auto& windows = pipe.output<core::GroupComparison>("window_panel");
    std::printf("\n-- days %d-%d vs days %d-%d (paired, Holm alpha=0.05) --\n",
                pre.first, pre.last, post.first, post.last);
    core::write_panel_tsv(stdout, windows);
  }
  return 0;
}
