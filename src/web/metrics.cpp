#include "web/metrics.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "stats/descriptive.h"

namespace nbv6::web {

VersionSubdomainEstimate estimate_version_subdomain_misclassification(
    const Universe& universe, std::span<const SiteCrawl> crawls,
    std::span<const SiteClassification> classifications) {
  if (crawls.size() != classifications.size())
    throw std::invalid_argument(
        "estimate_version_subdomain_misclassification: size mismatch");

  auto has_version_marker = [](std::string_view name) {
    return name.find("ipv4") != std::string_view::npos ||
           name.find("px4") != std::string_view::npos ||
           // bare "v4" as its own label or label prefix
           name.rfind("v4.", 0) == 0 ||
           name.find(".v4.") != std::string_view::npos;
  };

  VersionSubdomainEstimate est;
  for (size_t i = 0; i < crawls.size(); ++i) {
    if (classifications[i].cls != SiteClass::ipv6_partial) continue;
    ++est.partial_sites;
    bool all_marked = true;
    bool any = false;
    for (const auto& r : crawls[i].resources) {
      if (r.failed || !(r.has_a && !r.has_aaaa)) continue;
      any = true;
      if (!has_version_marker(universe.fqdns()[r.fqdn].name)) {
        all_marked = false;
        break;
      }
    }
    if (any && all_marked) ++est.suspect_sites;
  }
  return est;
}

SpanAnalysis::SpanAnalysis(const Universe& universe,
                           std::span<const SiteCrawl> crawls,
                           std::span<const SiteClassification> classifications) {
  if (crawls.size() != classifications.size())
    throw std::invalid_argument("SpanAnalysis: size mismatch");

  // Working state per dependency domain.
  struct Acc {
    std::vector<double> contributions;
    std::array<int, kResourceTypeCount> type_site_counts{};
    int third_party_span = 0;
  };
  std::unordered_map<std::string, Acc> acc;

  const auto& psl = universe.psl();

  for (size_t i = 0; i < crawls.size(); ++i) {
    if (classifications[i].cls != SiteClass::ipv6_partial) continue;
    const SiteCrawl& crawl = crawls[i];

    PartialSiteDeps deps;
    deps.site_index = crawl.site_index;

    // Per-site, per-domain tallies of v4-only resources and the types each
    // domain served (types counted once per site).
    std::map<std::string, std::array<bool, kResourceTypeCount>> types_here;
    std::map<std::string, bool> third_party_here;
    for (const auto& r : crawl.resources) {
      if (r.failed) continue;
      ++deps.total_resources;
      if (!(r.has_a && !r.has_aaaa)) continue;
      ++deps.v4only_resources;
      const auto& name = universe.fqdns()[r.fqdn].name;
      const std::string etld1(psl.registrable_domain(name).value_or(name));
      ++deps.v4only_domains[etld1];
      types_here[etld1][static_cast<size_t>(r.type)] = true;
      if (!r.first_party) third_party_here[etld1] = true;
      if (r.first_party) deps.has_first_party_v4only = true;
    }

    deps.only_first_party_v4only =
        deps.has_first_party_v4only && third_party_here.empty();
    if (deps.only_first_party_v4only) ++first_party_only_;

    for (const auto& [etld1, count] : deps.v4only_domains) {
      Acc& a = acc[etld1];
      a.contributions.push_back(static_cast<double>(count) /
                                static_cast<double>(deps.v4only_resources));
      const auto& t = types_here[etld1];
      for (size_t k = 0; k < kResourceTypeCount; ++k)
        if (t[k]) ++a.type_site_counts[k];
      if (third_party_here.contains(etld1)) ++a.third_party_span;
    }

    partial_sites_.push_back(std::move(deps));
  }

  impacts_.reserve(acc.size());
  for (auto& [etld1, a] : acc) {
    DomainImpact d;
    d.etld1 = etld1;
    d.span = static_cast<int>(a.contributions.size());
    d.median_contribution = stats::median(a.contributions);
    d.type_site_counts = a.type_site_counts;
    d.third_party_span = a.third_party_span;
    impacts_.push_back(std::move(d));
  }
  std::sort(impacts_.begin(), impacts_.end(),
            [](const DomainImpact& x, const DomainImpact& y) {
              if (x.span != y.span) return x.span > y.span;
              return x.etld1 < y.etld1;
            });
}

std::vector<DomainImpact> SpanAnalysis::heavy_hitters(int min_span) const {
  std::vector<DomainImpact> out;
  for (const auto& d : impacts_) {
    if (d.span < min_span) break;  // impacts_ is sorted by span desc
    out.push_back(d);
  }
  return out;
}

std::vector<int> SpanAnalysis::whatif_adoption_curve() const {
  // Each partial site becomes full when ALL of its IPv4-only dependency
  // domains have enabled IPv6. Enabling proceeds in descending span order
  // (impacts_ order). Track per-site remaining-dependency counts.
  std::unordered_map<std::string, std::vector<size_t>> dependents;
  std::vector<int> remaining(partial_sites_.size(), 0);
  for (size_t i = 0; i < partial_sites_.size(); ++i) {
    remaining[i] = static_cast<int>(partial_sites_[i].v4only_domains.size());
    for (const auto& [etld1, _] : partial_sites_[i].v4only_domains)
      dependents[etld1].push_back(i);
  }

  std::vector<int> curve;
  curve.reserve(impacts_.size());
  int fixed = 0;
  for (const auto& d : impacts_) {
    auto it = dependents.find(d.etld1);
    if (it != dependents.end()) {
      for (size_t site : it->second) {
        if (--remaining[site] == 0) ++fixed;
      }
    }
    curve.push_back(fixed);
  }
  return curve;
}

}  // namespace nbv6::web
