// Scenario sweep driver: an N-variant what-if forest off one base scenario,
// run as a loop of the scenario chain (engine/pipeline.h) over one cache.
//
// Every variant keeps the base population slice and differs only in its
// timeline (variant v > 0 appends one cpe_fix wave with a variant-specific
// repair fraction), so the base population is sampled exactly once for the
// whole forest, and each residence's shard is re-simulated only by the
// variants that re-plan it. The driver then re-runs the first variant warm
// and *asserts* the reuse: one sample in all (per-stage execution
// counters), and a warm run that hits on every cache lookup, the
// population and each residence's shard. It exits non-zero otherwise.
//
//   ./build/sweep_scenarios [--variants=25 --lanes=0 --residences=48
//                            --days=14 --seed=20260808 --outdir=DIR
//                            --scenario=base.cfg]
//
// With --outdir, each variant's window panel, CDF and summary are written
// there after the serial run, as variant_<v>_{panel.tsv,cdf.csv,summary.csv}.
// With --scenario, the base config is loaded from a scenario file instead
// of the embedded defaults.
//
// Output ends with one machine-greppable `RESULT` line (the CI artifact).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/fleet_analysis.h"
#include "core/scenario_pipeline.h"
#include "engine/fleet.h"
#include "engine/pipeline.h"
#include "engine/thread_pool.h"
#include "traffic/service_catalog.h"

using namespace nbv6;

namespace {

// One variant's figure files: <dir>/variant_<v>_{panel.tsv,cdf.csv,
// summary.csv}, rendered from its window panel and stats report.
bool write_variant_files(const std::string& dir, int v,
                         const engine::Pipeline& pipe) {
  const auto& panel = pipe.output<core::GroupComparison>("window_panel");
  const auto& dists =
      pipe.output<core::FleetStatsReport>("stats_report").distributions;
  const std::string base = dir + "/variant_" + std::to_string(v);
  return bench::write_file(
             base + "_panel.tsv",
             [&](std::FILE* f) { core::write_panel_tsv(f, panel); }) &&
         bench::write_file(
             base + "_cdf.csv",
             [&](std::FILE* f) { core::write_cdf_csv(f, dists); }) &&
         bench::write_file(
             base + "_summary.csv",
             [&](std::FILE* f) { core::write_summary_csv(f, dists); });
}

}  // namespace

int main(int argc, char** argv) {
  int variants = 25;
  int lanes = 0;
  std::string outdir;
  std::string scenario_path;
  engine::FleetConfig base;
  base.residences = 48;
  base.days = 14;
  base.seed = 20260808;

  bench::Cli cli("sweep_scenarios",
                 "What-if scenario forest on one shared cache");
  cli.flag_int("variants", &variants, "what-if variants to run");
  cli.flag_int("lanes", &lanes, "worker lanes, 0 = hw concurrency");
  cli.flag_int("residences", &base.residences.mut(), "base fleet size");
  cli.flag_int("days", &base.days.mut(), "base horizon in days");
  cli.flag_u64("seed", &base.seed.mut(), "base scenario master seed");
  cli.flag_string("outdir", &outdir,
                  "also render per-variant panel/CDF/summary files here");
  cli.flag_string("scenario", &scenario_path,
                  "load the base config from this scenario file");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  if (variants < 1) {
    std::fprintf(stderr, "--variants must be >= 1\n");
    return 2;
  }
  const auto resolved = bench::lanes_flag("lanes", lanes);
  if (!resolved) return 2;
  lanes = *resolved;
  if (!outdir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(outdir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --outdir %s: %s\n", outdir.c_str(),
                   ec.message().c_str());
      return 2;
    }
  }
  if (!scenario_path.empty()) {
    std::string error;
    auto loaded = engine::FleetConfig::load(scenario_path, &error);
    if (!loaded) {
      std::fprintf(stderr, "%s: %s\n", scenario_path.c_str(), error.c_str());
      return 2;
    }
    base = *loaded;
  }
  if (!bench::fleet_flags_valid(base)) return 2;

  const auto catalog = traffic::build_paper_catalog();
  const auto pool = bench::lane_pool(lanes);

  std::printf("sweep: %d variants of %d residences x %d days on %d lane(s)\n",
              variants, base.residences.get(), base.days.get(), lanes);

  // Variant configs: variant v > 0 appends a cpe_fix wave whose repair
  // fraction sweeps (0, 1]: only the timeline changes, so the population
  // key stays identical across the whole forest while timeline, simulate
  // and the analysis re-run per variant.
  std::vector<engine::FleetConfig> cfgs;
  for (int v = 0; v < variants; ++v) {
    engine::FleetConfig cfg = base;
    if (v > 0) {
      engine::TimelineEvent fix;
      fix.kind = engine::TimelineEventKind::cpe_fix;
      fix.start_day = cfg.days / 4;
      fix.end_day = cfg.days - 1;
      fix.fraction = static_cast<double>(v) / variants;
      cfg.timeline->events.push_back(fix);
    }
    cfgs.push_back(std::move(cfg));
  }

  // One pipeline per variant, one cache for the forest, run in variant
  // order.
  engine::PassCache cache;
  std::vector<std::unique_ptr<engine::Pipeline>> pipes;
  std::size_t executed = 0;
  std::size_t cached = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int v = 0; v < variants; ++v) {
    pipes.push_back(std::make_unique<engine::Pipeline>(
        core::make_scenario_pipeline(cfgs[v], catalog)));
    const auto stats = pipes.back()->run(&cache, pool.get());
    executed += stats.executed;
    cached += stats.cached;
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double serial_secs = std::chrono::duration<double>(t1 - t0).count();

  // The reuse invariants: the base population is sampled exactly once,
  // across the forest and a warm re-run of the base variant together, and
  // the warm re-run hits on every cache lookup it makes: the population and
  // each residence's shard.
  const std::uint64_t lookups_before = cache.lookups();
  const std::uint64_t hits_before = cache.hits();
  const auto warm = pipes[0]->run(&cache, pool.get());
  const unsigned long long warm_lookups = cache.lookups() - lookups_before;
  const unsigned long long warm_hits = cache.hits() - hits_before;
  const unsigned long long want_lookups = 1ull + base.residences.get();
  unsigned long long sample_execs = 0;
  for (const auto& p : pipes) sample_execs += p->executions("sample");
  if (sample_execs != 1 || warm_lookups != want_lookups ||
      warm_hits != warm_lookups) {
    std::fprintf(stderr,
                 "FAIL: sample executed %llu times across %d variants and a "
                 "warm re-run, which hit %llu of %llu cache lookups "
                 "(expected 1, and %llu of %llu)\n",
                 sample_execs, variants, warm_hits, warm_lookups,
                 want_lookups, want_lookups);
    return 1;
  }

  std::printf(
      "  base sampled once; %zu stages executed, %zu served from cache\n"
      "  warm re-run: %zu executed / %zu cached, %llu of %llu lookups hit; "
      "cache holds %zu results\n",
      executed, cached, warm.executed, warm.cached, warm_hits, warm_lookups,
      cache.size());

  if (!outdir.empty()) {
    for (int v = 0; v < variants; ++v)
      if (!write_variant_files(outdir, v, *pipes[v])) return 1;
    std::printf("  wrote %d files to %s\n", 3 * variants, outdir.c_str());
  }

  std::printf(
      "RESULT variants=%d lanes=%d sample_executions=%llu "
      "passes_executed=%zu passes_cached=%zu warm_executed=%zu "
      "warm_lookups=%llu warm_hits=%llu cache_entries=%zu seconds=%.6f\n",
      variants, lanes, sample_execs, executed, cached, warm.executed,
      warm_lookups, warm_hits, cache.size(), serial_secs);
  return 0;
}
