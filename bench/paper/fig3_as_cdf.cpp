// Figure 3: cumulative distribution of per-AS IPv6 byte fractions for ASes
// observed at three or more residences, per residence.
#include "paper.h"

using namespace nbv6;

void bench::fig3_as_cdf(const Paper& p) {
  bench::section("Figure 3: per-AS IPv6 byte fraction CDFs by residence");
  // Per-residence AS usage at the paper's >= 0.01% traffic threshold.
  std::vector<std::vector<core::AsUsage>> per_res;
  for (const auto& r : p.residences)
    per_res.push_back(core::as_usage(r.monitor, p.catalog.as_map(), 1e-4));

  // ASes present at >= 3 residences (the paper's 35).
  auto shared = core::ases_at_min_residences(per_res, 3);
  std::printf("ASes at >= 3 residences: %zu\n", shared.size());

  for (size_t i = 0; i < p.residences.size(); ++i) {
    std::vector<double> fracs;
    for (const auto& as : per_res[i]) {
      // Restrict to the shared-AS population, as the figure does.
      for (const auto& s : shared)
        if (s.asn == as.asn) fracs.push_back(as.v6_fraction());
    }
    std::string label = "Residence " + p.residences[i].config.name +
                        " per-AS IPv6 byte fraction";
    bench::print_cdf(fracs, label.c_str(), 10);
  }

  std::printf(
      "\nShape check vs paper: every residence has IPv4-only ASes (>= a "
      "quarter at 0.0);\nResidence C's curve saturates early (its maximum "
      "per-AS fraction is depressed by\nbroken device IPv6).\n");
}
