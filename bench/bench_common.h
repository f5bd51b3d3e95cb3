// Shared plumbing for the experiment harness binaries.
//
// The paper's figures, tables and ablations are sections of one binary,
// `paper` (bench/paper.cpp, sections in bench/paper/), which prints the
// same rows/series the paper reports, against the synthetic substrate, so
// the *shape* of every result can be compared directly with the published
// numbers. Its two scale knobs are flags: --sites (default 100000, the
// paper's scale) and --days (default 274, Nov 2024 - Aug 2025); a value
// below 1, or sites above web::kMaxSites, exits 2 through positive_flag,
// a malformed one through Cli.
// The fleet binaries share the fleet flags and lane checks below.
#pragma once

#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "bench_cli.h"
#include "engine/fleet.h"
#include "engine/thread_pool.h"
#include "stats/descriptive.h"

namespace nbv6::bench {

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

/// False, with the violation naming the flag `--<flag>` on stderr, unless
/// `value` is in 1..max; on false the binary exits 2, as for a malformed
/// flag, so a typo never runs a 0-day or 1-site experiment, and a size
/// above what the program can hold is refused before anything is built.
inline bool positive_flag(const char* flag, int value,
                          int max = std::numeric_limits<int>::max()) {
  if (value < 1)
    std::fprintf(stderr, "--%s=%d: expected a positive integer\n", flag, value);
  else if (value > max)
    std::fprintf(stderr, "--%s=%d: expected at most %d\n", flag, value, max);
  return value >= 1 && value <= max;
}

/// The pool for `lanes` lanes: the calling thread is one lane, the pool
/// supplies the rest (nullptr for one lane).
inline std::unique_ptr<engine::ThreadPool> lane_pool(int lanes) {
  if (lanes <= 1) return nullptr;
  return std::make_unique<engine::ThreadPool>(lanes - 1);
}

}  // namespace nbv6::bench
