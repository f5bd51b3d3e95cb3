// Figure 4: distribution (box plots) of IPv6 byte fractions for ASes seen
// at three or more residences, grouped by functional category.
// Figure 17: the domain-level (reverse DNS) counterpart.
#include <algorithm>
#include <map>

#include "paper.h"

using namespace nbv6;

void bench::fig4_as_boxplots(const Paper& p) {
  bench::section("Figure 4: per-AS IPv6 fraction box plots by category");
  std::vector<std::vector<core::AsUsage>> per_res;
  for (const auto& r : p.residences)
    per_res.push_back(core::as_usage(r.monitor, p.catalog.as_map(), 1e-4));
  auto shared = core::ases_at_min_residences(per_res, 3);

  // Group by catalog category; sort by median within each group.
  std::map<traffic::ServiceCategory, std::vector<core::CrossResidenceUsage>>
      groups;
  for (auto& s : shared) {
    auto idx = p.catalog.find_by_asn(s.asn);
    if (!idx) continue;
    groups[p.catalog.at(*idx).category].push_back(s);
  }
  for (auto& [cat, members] : groups) {
    std::printf("\n-- %s --\n", std::string(to_string(cat)).c_str());
    std::sort(members.begin(), members.end(), [](const auto& a, const auto& b) {
      return stats::median(a.fractions) > stats::median(b.fractions);
    });
    for (const auto& m : members) {
      auto b = stats::boxplot(m.fractions);
      bench::print_boxplot(
          b, m.key + " (" + std::to_string(m.asn) + ") n=" +
                 std::to_string(m.fractions.size()));
    }
  }

  bench::section("Figure 17: per-domain (reverse DNS) IPv6 fraction box plots");
  std::vector<std::vector<core::DomainUsage>> dom_per_res;
  for (const auto& r : p.residences)
    dom_per_res.push_back(core::domain_usage(r.monitor, p.catalog, 0));
  // Paper threshold: >= 3 residences and >= 100 MB total.
  auto domains = core::domains_at_min_residences(dom_per_res, 3, 100'000'000);
  std::sort(domains.begin(), domains.end(), [](const auto& a, const auto& b) {
    return stats::median(a.fractions) < stats::median(b.fractions);
  });
  for (const auto& d : domains)
    bench::print_boxplot(stats::boxplot(d.fractions), d.key);

  std::printf(
      "\nShape check vs paper: ISPs uniformly low (medians <= 20%%); "
      "Web/Social >90%%\nexcept ByteDance; Zoom, Twitch (justin.tv), GitHub, "
      "USC at zero.\n");
}
