// Fleet figure: cross-fleet Wilcoxon panels — Fig. 12's Holm-corrected
// pairwise comparison machinery applied to residence strata instead of
// cloud providers. Each default group pair (healthy-v6 vs broken-CPE,
// dual-stack vs v4-only, streamer vs baseline, visible vs opt-out) gets an
// unpaired rank-sum panel over every fleet metric; active homes get the
// paired signed-rank metric panel; and the horizon's two halves get the
// paired pre/post day-window panel (day-resolved metrics, including the
// per-day session stats behind he_failure_rate). Writes one TSV for
// plotting or CI artifact upload and prints it to stdout.
//
//   ./build/fleet_fig_wilcoxon [--residences=N --days=N --seed=S
//                               --threads=T --panel-out=PATH]
#include <cstdio>
#include <string>

#include "core/fleet_analysis.h"
#include "core/scenario_pipeline.h"
#include "engine/fleet.h"
#include "engine/pipeline.h"
#include "traffic/service_catalog.h"

#include "bench_common.h"

using namespace nbv6;

int main(int argc, char** argv) {
  auto cfg = bench::default_bench_fleet();
  int threads = 0;
  std::string panel_path = "fleet_wilcoxon.tsv";
  bench::Cli cli("fleet_fig_wilcoxon",
                 "Cross-fleet Wilcoxon group-comparison panels");
  bench::register_fleet_flags(cli, cfg, threads);
  cli.flag_string("panel-out", &panel_path, "panel TSV output");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  if (!bench::fleet_flags_valid(cfg)) return 2;
  const auto lanes = bench::lanes_flag("threads", threads);
  if (!lanes) return 2;

  bench::section("Fleet figure: Wilcoxon group-comparison panels");
  auto catalog = traffic::build_paper_catalog();
  const auto pool = bench::lane_pool(*lanes);
  std::printf("fleet: %d residences x %d days on %d lane(s)\n",
              cfg.residences.get(), cfg.days.get(), *lanes);
  engine::Pipeline pipe = core::make_scenario_pipeline(cfg, catalog);
  pipe.run(nullptr, pool.get());
  const auto& report = pipe.output<core::FleetStatsReport>("stats_report");

  // Every panel is printed under a label and appended to the TSV under
  // one shared header.
  const bool wrote = bench::write_file(panel_path, [&](std::FILE* out) {
    bool first = true;
    auto emit = [&](const core::GroupComparison& cmp) {
      core::write_panel_tsv(stdout, cmp);
      core::write_panel_tsv(out, cmp, first);
      first = false;
    };
    for (const auto& cmp : report.comparisons) {
      std::printf("\n-- %s vs %s --\n", core::to_string(cmp.group_a),
                  core::to_string(cmp.group_b));
      emit(cmp);
    }
    std::printf("\n-- paired metric panel (active homes) --\n");
    emit(report.paired);
    // Pre/post panel over the horizon's halves: with a timeline this is the
    // before/after comparison, without one a self-check near the null. The
    // day-resolved session stats make every row real — he_failure_rate
    // included.
    if (cfg.days >= 2) {
      const auto [pre, post] = core::panel_windows(cfg.days);
      std::printf(
          "\n-- days %d-%d vs days %d-%d (paired, Holm alpha=0.05) --\n",
          pre.first, pre.last, post.first, post.last);
      emit(pipe.output<core::GroupComparison>("window_panel"));
    }
  });
  if (!wrote) return 1;
  std::printf("\nwrote %s\n", panel_path.c_str());

  std::printf(
      "\nShape check vs paper: the broken-CPE and v4-only strata sit far "
      "below their\ncounterparts on every v6-fraction metric (large negative "
      "effect r, significant\nafter Holm); volume metrics separate streamers "
      "from baseline homes.\n");
  return 0;
}
