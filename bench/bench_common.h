// Shared plumbing for the experiment harness binaries.
//
// Every table and figure of the paper has its own binary under bench/.
// Each prints the same rows/series the paper reports, against the synthetic
// substrate, so the *shape* of every result can be compared directly with
// the published numbers.
//
// Scale knobs via environment (positive integers; anything else exits 2):
//   NBV6_SITES  web universe size   (default 100000, the paper's scale)
//   NBV6_DAYS   residence days      (default 274, Nov 2024 - Aug 2025)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench_cli.h"
#include "cloud/providers.h"
#include "core/client_analysis.h"
#include "engine/fleet.h"
#include "engine/run_spec.h"
#include "engine/thread_pool.h"
#include "core/server_analysis.h"
#include "flowmon/monitor.h"
#include "stats/descriptive.h"
#include "traffic/generator.h"
#include "traffic/residence.h"
#include "traffic/service_catalog.h"
#include "web/universe.h"

namespace nbv6::bench {

/// A scale knob from the environment, `fallback` when unset. The value goes
/// through the same strict lexer as the flags; a malformed value or one
/// below 1 exits with status 2 and a message naming the variable, so a typo
/// never silently runs a 0-day or 1-site experiment.
inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  int out = 0;
  if (!engine::cfgparse::parse_int(v, out) || out < 1) {
    std::fprintf(stderr, "%s must be a positive integer, got '%s'\n", name, v);
    std::exit(2);
  }
  return out;
}

/// Write `path` through `render(FILE*)`. False, with the reason on stderr,
/// when the file cannot be opened, written or closed. The file is closed on
/// every path, a throwing `render` included.
template <typename Render>
bool write_file(const std::string& path, Render&& render) {
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  std::unique_ptr<std::FILE, Closer> f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  render(f.get());
  const bool write_failed = std::ferror(f.get()) != 0;
  if (std::fclose(f.release()) != 0 || write_failed) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

inline void section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Print an ECDF at fixed evaluation points as "x y" rows.
inline void print_cdf(std::span<const double> values, const char* label,
                      int points = 21) {
  stats::Ecdf cdf(values);
  std::printf("# CDF: %s (n=%zu)\n", label, values.size());
  for (int i = 0; i <= points; ++i) {
    double q = static_cast<double>(i) / points;
    std::printf("  q=%.2f  value=%.4f\n", q, cdf.inverse(q));
  }
}

inline void print_boxplot(const stats::BoxPlot& b, const std::string& label) {
  std::printf("  %-42s q1=%.3f med=%.3f q3=%.3f whisk=[%.3f,%.3f] outliers=%zu\n",
              label.c_str(), b.q1, b.median, b.q3, b.whisker_low,
              b.whisker_high, b.outliers.size());
}

/// The fleet figure binaries' shared scenario defaults, one place so both
/// figures always run the same fleet.
inline engine::FleetConfig default_bench_fleet() {
  engine::FleetConfig cfg;
  cfg.residences = 256;
  cfg.days = 14;
  cfg.seed = 20260726;
  return cfg;
}

/// Register the shared fleet flags on `cli`: the scenario knobs target
/// `cfg` (typically default_bench_fleet()), `--threads` targets `threads`
/// (a run setting, not part of the scenario).
inline void register_fleet_flags(Cli& cli, engine::FleetConfig& cfg,
                                 int& threads) {
  cli.flag_int("residences", &cfg.residences.mut(), "fleet size");
  cli.flag_int("days", &cfg.days.mut(), "simulated horizon in days");
  cli.flag_u64("seed", &cfg.seed.mut(), "scenario master seed");
  cli.flag_int("threads", &threads, "worker lanes, 0 = hw concurrency");
}

/// FleetConfig::check on a config assembled from flags, which parse()
/// never saw. Prints the violation to stderr; on false the binary exits 2,
/// as for a malformed flag.
inline bool fleet_flags_valid(const engine::FleetConfig& cfg) {
  const auto error = cfg.check();
  if (error) std::fprintf(stderr, "%s\n", error->c_str());
  return !error;
}

/// engine::resolve_lanes on the value of the lane-count flag `--<flag>`.
/// Prints the violation, naming the flag, to stderr; on nullopt the binary
/// exits 2, as for a malformed flag.
inline std::optional<int> lanes_flag(const char* flag, int value) {
  const auto lanes = engine::resolve_lanes(value);
  if (!lanes)
    std::fprintf(stderr, "--%s=%d: expected 0 (hardware concurrency) to %d\n",
                 flag, value, engine::kMaxLanes);
  return lanes;
}

/// The pool for `lanes` lanes: the calling thread is one lane, the pool
/// supplies the rest (nullptr for one lane).
inline std::unique_ptr<engine::ThreadPool> lane_pool(int lanes) {
  if (lanes <= 1) return nullptr;
  return std::make_unique<engine::ThreadPool>(lanes - 1);
}

/// Run all five paper residences for NBV6_DAYS days through
/// engine::simulate_fleet on a hardware-concurrency pool; `residences[i]`
/// is paper residence i.
inline engine::FleetResult simulate_residences(
    const traffic::ServiceCatalog& catalog) {
  auto configs = traffic::paper_residences();
  const int days = env_int("NBV6_DAYS", 274);
  for (auto& cfg : configs) cfg.days = days;
  const auto pool = lane_pool(*engine::resolve_lanes(0));
  return engine::simulate_fleet(catalog, configs, pool.get());
}

/// The standard web universe at NBV6_SITES scale.
inline web::Universe make_universe(const cloud::ProviderCatalog& providers) {
  web::UniverseConfig cfg;
  cfg.site_count = env_int("NBV6_SITES", 100000);
  return web::Universe(cfg, providers);
}

}  // namespace nbv6::bench
