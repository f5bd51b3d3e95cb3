// Fleet figure: population CDFs and five-number summaries of per-residence
// metrics — Figures 1/3/4 scaled from the paper's five instrumented homes
// to a simulated fleet. Writes two CSVs (CDF curves, box/summary rows) for
// plotting or CI artifact upload, and prints the summaries to stdout.
//
//   ./build/fleet_fig_cdf [--residences=N --days=N --seed=S --threads=T
//                          --cdf-out=PATH --summary-out=PATH]
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
  std::string cdf_path = "fleet_cdf.csv";
  std::string summary_path = "fleet_summary.csv";
  bench::Cli cli("fleet_fig_cdf",
                 "Population CDFs and summaries of per-residence metrics");
  bench::register_fleet_flags(cli, cfg, threads);
  cli.flag_string("cdf-out", &cdf_path, "CDF curves output");
  cli.flag_string("summary-out", &summary_path, "box/summary output");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  if (!bench::fleet_flags_valid(cfg)) return 2;
  const auto lanes = bench::lanes_flag("threads", threads);
  if (!lanes) return 2;

  bench::section("Fleet figure: population CDFs of per-residence metrics");
  auto catalog = traffic::build_paper_catalog();
  const auto pool = bench::lane_pool(*lanes);
  std::printf("fleet: %d residences x %d days on %d lane(s)\n",
              cfg.residences.get(), cfg.days.get(), *lanes);
  engine::Pipeline pipe = core::make_scenario_pipeline(cfg, catalog);
  pipe.run(nullptr, pool.get());

  const auto& dists =
      pipe.output<core::FleetStatsReport>("stats_report").distributions;

  for (const auto& d : dists) {
    bench::print_boxplot(d.box, core::to_string(d.metric));
  }

  if (!bench::write_file(cdf_path, [&](std::FILE* f) {
        core::write_cdf_csv(f, dists);
      }) || !bench::write_file(summary_path, [&](std::FILE* f) {
        core::write_summary_csv(f, dists);
      }))
    return 1;
  std::printf("\nwrote %s and %s\n", cdf_path.c_str(), summary_path.c_str());

  std::printf(
      "\nShape check vs paper: per-residence byte fractions spread widely "
      "(Table 1's\n0.07-0.68 range becomes a near-uniform population CDF); "
      "flow fractions sit\nsystematically above byte fractions.\n");
  return 0;
}
