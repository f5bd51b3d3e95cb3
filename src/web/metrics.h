// Impact metrics for IPv4-only resource domains (§4.3).
//
// Over the IPv6-partial population, this module computes, per IPv4-only
// eTLD+1 dependency: its *span* (how many partial sites depend on it), its
// *median contribution* (the median across dependents of the fraction of a
// site's IPv4-only resources it supplies), its first-/third-party role, its
// category, and its per-resource-type reach (Figs. 8, 9, 18). It also runs
// the §4.3 what-if simulation: enable IPv6 on IPv4-only domains in
// descending span order and count the partial sites that become full
// (Fig. 10).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "web/classify.h"
#include "web/crawler.h"
#include "web/universe.h"

namespace nbv6::web {

/// One IPv6-partial site's IPv4-only dependency picture.
struct PartialSiteDeps {
  std::uint32_t site_index = 0;
  int total_resources = 0;
  int v4only_resources = 0;
  /// Distinct eTLD+1 domains supplying the IPv4-only resources, with how
  /// many of the site's IPv4-only resources each supplies.
  std::map<std::string, int> v4only_domains;
  bool has_first_party_v4only = false;
  /// Partial purely because of first-party IPv4-only resources (§4.3's 565
  /// easily-fixable sites).
  bool only_first_party_v4only = false;
};

/// Impact statistics of one IPv4-only dependency domain.
struct DomainImpact {
  std::string etld1;
  int span = 0;
  double median_contribution = 0.0;
  /// Number of dependent partial sites on which this domain serves each
  /// resource type (Fig. 18 rows).
  std::array<int, kResourceTypeCount> type_site_counts{};
  /// Dependent sites where the domain is third-party.
  int third_party_span = 0;
};

/// §4.4's misclassification estimate: a dual-stack site may deliberately
/// load version-specific subdomains (names containing "v4", "ipv4", "px4")
/// when fetched over IPv4, making an actually-IPv6-full site look partial.
/// Counts IPv6-partial sites where EVERY IPv4-only resource FQDN carries
/// such a version marker (the paper finds 106 of ~24k, 0.4%).
struct VersionSubdomainEstimate {
  int suspect_sites = 0;   ///< partial purely due to version-marked FQDNs
  int partial_sites = 0;
  [[nodiscard]] double fraction() const {
    return partial_sites == 0
               ? 0.0
               : static_cast<double>(suspect_sites) / partial_sites;
  }
};

/// Throws std::invalid_argument unless there is one classification per
/// crawl.
VersionSubdomainEstimate estimate_version_subdomain_misclassification(
    const Universe& universe, std::span<const SiteCrawl> crawls,
    std::span<const SiteClassification> classifications);

class SpanAnalysis {
 public:
  /// Throws std::invalid_argument unless there is one classification per
  /// crawl.
  SpanAnalysis(const Universe& universe, std::span<const SiteCrawl> crawls,
               std::span<const SiteClassification> classifications);

  [[nodiscard]] const std::vector<PartialSiteDeps>& partial_sites() const {
    return partial_sites_;
  }

  /// Impacts sorted by descending span.
  [[nodiscard]] const std::vector<DomainImpact>& impacts() const {
    return impacts_;
  }

  /// Impacts with span >= threshold (the paper's 396 heavy hitters at
  /// span >= 100 on the full-size universe).
  [[nodiscard]] std::vector<DomainImpact> heavy_hitters(int min_span) const;

  /// What-if adoption curve: entry k = number of currently-partial sites
  /// that are IPv6-full once the top (k+1) domains by span have enabled
  /// IPv6 (Fig. 10's y-values, cumulative).
  [[nodiscard]] std::vector<int> whatif_adoption_curve() const;

  /// Count of partial sites with first-party-only IPv4 dependencies.
  [[nodiscard]] int first_party_only_count() const {
    return first_party_only_;
  }

 private:
  std::vector<PartialSiteDeps> partial_sites_;
  std::vector<DomainImpact> impacts_;
  int first_party_only_ = 0;
};

}  // namespace nbv6::web
