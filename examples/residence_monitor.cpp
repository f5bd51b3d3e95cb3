// residence_monitor: run the flow-monitoring pipeline over a custom
// household and report how much of its traffic is actually IPv6 — the §3
// measurement as a reusable tool.
//
// Configures a two-person apartment that streams a lot of Twitch (an
// IPv4-only service) but otherwise lives on IPv6-ready platforms, then
// prints the Table-1-style report, the per-service leaders/laggards, and
// the diurnal decomposition summary.
//
//   ./build/example_residence_monitor [days]   (days >= 1, default 90)
#include <cstdio>

#include "core/client_analysis.h"
#include "engine/timeline.h"
#include "flowmon/monitor.h"
#include "traffic/generator.h"

using namespace nbv6;

int main(int argc, char** argv) {
  if (argc > 2) {
    std::fprintf(stderr, "usage: %s [days]\n", argv[0]);
    return 2;
  }
  int days = 90;
  if (argc > 1 && (!engine::cfgparse::parse_int(argv[1], days) || days < 1)) {
    std::fprintf(stderr, "days must be a positive integer, got '%s'\n",
                 argv[1]);
    return 2;
  }

  auto catalog = traffic::build_paper_catalog();

  traffic::ResidenceConfig home;
  home.name = "X";
  home.days = days;
  home.activity_scale = 5.0;
  home.internal_flows_per_hour = 1.5;
  home.internal_v6_frac = 0.5;
  home.service_weight_overrides = {
      {"TWITCH", 3.0},          // the IPv4-only anchor
      {"GOOGLE", 2.0},          {"AS-SSI", 1.5},
      {"CLOUDFLARENET", 1.5},   {"FACEBOOK", 1.2},
  };
  home.seed = 2026;

  flowmon::FlowMonitor monitor;
  flowmon::MonitorSink sink(monitor, monitor);
  traffic::ResidenceSimulator simulator(catalog, home);
  auto stats = simulator.run(sink);
  std::printf("simulated %d days: %llu sessions, %llu flows\n", days,
              static_cast<unsigned long long>(stats.sessions),
              static_cast<unsigned long long>(stats.flows));

  auto report = core::analyze_residence(home.name, monitor);
  std::printf("\nexternal traffic: %.1f GB total, %.1f%% IPv6 by bytes, "
              "%.1f%% by flows\n",
              report.external.total_gb,
              100 * report.external.overall_byte_fraction,
              100 * report.external.overall_flow_fraction);
  std::printf("day-to-day byte fraction: mean %.3f, sd %.3f (min %.3f, max "
              "%.3f)\n",
              report.external.daily_byte_fraction.mean,
              report.external.daily_byte_fraction.stddev,
              report.external.daily_byte_fraction.min,
              report.external.daily_byte_fraction.max);

  std::printf("\nservices by volume (leaders and laggards):\n");
  auto usage = core::as_usage(monitor, catalog.as_map(), 1e-3);
  for (const auto& u : usage) {
    std::printf("  %-28s %8.2f GB  %5.1f%% IPv6%s\n", u.as_name.c_str(),
                static_cast<double>(u.bytes) / 1e9, 100 * u.v6_fraction(),
                u.v6_fraction() == 0.0 ? "   <- IPv4-only laggard" : "");
  }

  auto diurnal = core::diurnal_decomposition(monitor, /*by_bytes=*/true);
  if (!diurnal.daily.empty()) {
    double peak = stats::max(diurnal.daily);
    double trough = stats::min(diurnal.daily);
    std::printf("\ndiurnal structure: daily component swings %+.3f to %+.3f "
                "around the trend\n(IPv6 use follows humans being home).\n",
                trough, peak);
  }
  return 0;
}
