// Cloud adoption analyses (§5).
//
// Inputs are DomainRecords: one per observed FQDN, carrying its first A and
// AAAA answers, its CNAME terminal and its eTLD+1 (core::build_domain_records
// fills them from a survey's per-epoch FQDN table). Three analyses mirror
// the paper's:
//
//   - provider_breakdown: attribute each record to the organization(s)
//     originating the BGP prefixes of its addresses and classify it as
//     IPv4-only / IPv6-full / IPv6-only *within each org's address space* —
//     the per-org view that surfaces the Bunnyway/Datacamp and Akamai
//     split-attribution artifacts (Fig. 11, Table 3).
//   - service_breakdown: identify the tenant-facing service by CNAME
//     suffix (He et al.'s technique) and measure per-service IPv6
//     readiness (Table 2).
//   - MultiCloudComparison: find eTLD+1 tenants spread across two or more
//     orgs, compare per-org IPv6-full subdomain fractions with two-sided
//     Wilcoxon signed-rank tests, and control FWER with Holm-Bonferroni
//     (Fig. 12).
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cloud/providers.h"
#include "net/ip.h"
#include "stats/wilcoxon.h"

namespace nbv6::cloud {

/// One observed FQDN as the cloud analyses see it. A record is reachable:
/// it has an A, an AAAA, or both.
struct DomainRecord {
  std::string fqdn;
  /// Registrable domain (the tenant); equals fqdn when the name has none.
  std::string etld1;
  /// First A answer, if any.
  std::optional<net::IpAddr> a_addr;
  /// First AAAA answer, if any.
  std::optional<net::IpAddr> aaaa_addr;
  /// Terminal name of the CNAME chain (equals fqdn when chain-free).
  std::string cname_terminal;

  [[nodiscard]] bool has_a() const { return a_addr.has_value(); }
  [[nodiscard]] bool has_aaaa() const { return aaaa_addr.has_value(); }
};

struct ProviderBreakdownRow {
  std::string org;
  int total = 0;
  int v4_only = 0;   ///< A in this org, AAAA not in this org
  int v6_full = 0;   ///< A and AAAA both in this org
  int v6_only = 0;   ///< AAAA in this org, A not in this org
  [[nodiscard]] double pct(int n) const {
    return total == 0 ? 0.0 : 100.0 * n / static_cast<double>(total);
  }
};

/// Per-org rows sorted by total descending, preceded by an "Overall" row
/// classifying every record globally (has A / has AAAA, any org).
std::vector<ProviderBreakdownRow> provider_breakdown(
    std::span<const DomainRecord> records, const ProviderCatalog& catalog);

struct ServiceAdoptionRow {
  std::string provider_org;
  std::string service_name;
  V6Policy policy = V6Policy::opt_in;
  int total = 0;
  int v6_ready = 0;  ///< records with an AAAA anywhere
  [[nodiscard]] double pct_ready() const {
    return total == 0 ? 0.0 : 100.0 * v6_ready / static_cast<double>(total);
  }
};

/// Group records by CNAME-suffix-identified service (Table 2). Records
/// whose terminals match no catalogued suffix are skipped.
std::vector<ServiceAdoptionRow> service_breakdown(
    std::span<const DomainRecord> records, const ProviderCatalog& catalog);

struct PairComparison {
  std::string org1;
  std::string org2;
  /// Shared tenants where the two orgs differ in IPv6 support (the (n) of
  /// Fig. 12's cells).
  int differing_tenants = 0;
  double effect_size_r = 0.0;  ///< >0: org1 more IPv6-full for shared tenants
  double p_value = 1.0;
  bool significant = false;  ///< after Holm-Bonferroni at alpha
  bool comparable = false;   ///< >= 2 differing tenants existed
};

class MultiCloudComparison {
 public:
  /// `merge` renames orgs before grouping (e.g. both Cloudflare entities
  /// to "Cloudflare (All)"), reproducing the paper's merged rows.
  MultiCloudComparison(std::span<const DomainRecord> records,
                       const ProviderCatalog& catalog,
                       const std::map<std::string, std::string>& merge = {},
                       double alpha = 0.05);

  [[nodiscard]] int multi_cloud_tenant_count() const { return tenant_count_; }
  [[nodiscard]] const std::vector<std::string>& orgs() const { return orgs_; }
  /// All org pairs (i < j in orgs() order).
  [[nodiscard]] const std::vector<PairComparison>& pairs() const {
    return pairs_;
  }
  /// Wins(O) = number of significant pairs where O is the more-IPv6 side;
  /// used to order Fig. 12's axes.
  [[nodiscard]] int wins(const std::string& org) const;

 private:
  int tenant_count_ = 0;
  std::vector<std::string> orgs_;
  std::vector<PairComparison> pairs_;
};

}  // namespace nbv6::cloud
