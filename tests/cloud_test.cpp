#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "cloud/analysis.h"
#include "cloud/providers.h"
#include "core/cloud_analysis.h"
#include "core/server_analysis.h"
#include "dns/resolver.h"
#include "reference_domain_records.h"
#include "web/crawler.h"
#include "web/universe.h"

namespace nbv6::cloud {
namespace {

// Hand-built records exercising the attribution rules precisely.
class ProviderBreakdownUnit : public ::testing::Test {
 protected:
  DomainRecord rec(const std::string& fqdn, const std::string& etld1,
                   std::optional<size_t> a_prov,
                   std::optional<size_t> aaaa_prov) {
    DomainRecord r;
    r.fqdn = fqdn;
    r.etld1 = etld1;
    r.cname_terminal = fqdn;
    if (a_prov) r.a_addr = net::IpAddr{catalog_.v4_address(*a_prov, id_)};
    if (aaaa_prov)
      r.aaaa_addr = net::IpAddr{catalog_.v6_address(*aaaa_prov, id_)};
    ++id_;
    return r;
  }

  const ProviderBreakdownRow* find(
      const std::vector<ProviderBreakdownRow>& rows,
      const std::string& org) {
    for (const auto& r : rows)
      if (r.org == org) return &r;
    return nullptr;
  }

  ProviderCatalog catalog_;
  std::uint32_t id_ = 1;
};

TEST_F(ProviderBreakdownUnit, FullDomainCountsUnderItsOrg) {
  size_t cf = catalog_.find("Cloudflare, Inc.").value();
  std::vector<DomainRecord> records{rec("a.example.com", "example.com", cf, cf)};
  auto rows = provider_breakdown(records, catalog_);
  auto* row = find(rows, "Cloudflare, Inc.");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->total, 1);
  EXPECT_EQ(row->v6_full, 1);
  EXPECT_EQ(rows[0].org, "Overall");
  EXPECT_EQ(rows[0].v6_full, 1);
}

TEST_F(ProviderBreakdownUnit, V4OnlyDomain) {
  size_t ovh = catalog_.find("OVH SAS").value();
  std::vector<DomainRecord> records{
      rec("b.example.com", "example.com", ovh, std::nullopt)};
  auto rows = provider_breakdown(records, catalog_);
  auto* row = find(rows, "OVH SAS");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->v4_only, 1);
  EXPECT_EQ(row->v6_full, 0);
}

TEST_F(ProviderBreakdownUnit, SplitFamiliesCountUnderBothOrgs) {
  // The Bunnyway/Datacamp pattern: A in one org, AAAA in another.
  size_t bunny =
      catalog_.find("BUNNYWAY, informacijske storitve d.o.o.").value();
  size_t datacamp = catalog_.find("Datacamp Limited").value();
  std::vector<DomainRecord> records{
      rec("cdn.tenant.net", "tenant.net", datacamp, bunny)};
  auto rows = provider_breakdown(records, catalog_);

  auto* b = find(rows, "BUNNYWAY, informacijske storitve d.o.o.");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->v6_only, 1);  // only its AAAA lives here
  auto* d = find(rows, "Datacamp Limited");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->v4_only, 1);  // only its A lives here
  // Globally the domain is dual-stack.
  EXPECT_EQ(rows[0].v6_full, 1);
}

TEST_F(ProviderBreakdownUnit, UnknownSpaceOnlyCountsOverall) {
  DomainRecord r;
  r.fqdn = "self.example.org";
  r.etld1 = "example.org";
  r.a_addr = net::IpAddr{net::IPv4Addr(93, 0, 0, 1)};  // unannounced space
  std::vector<DomainRecord> records{r};
  auto rows = provider_breakdown(records, catalog_);
  EXPECT_EQ(rows.size(), 1u);  // Overall only
  EXPECT_EQ(rows[0].v4_only, 1);
}

TEST_F(ProviderBreakdownUnit, PercentageHelper) {
  ProviderBreakdownRow row;
  row.total = 200;
  EXPECT_DOUBLE_EQ(row.pct(50), 25.0);
  ProviderBreakdownRow empty;
  EXPECT_DOUBLE_EQ(empty.pct(0), 0.0);
}

// --------------------------------------------------- service identification

TEST(ServiceBreakdownUnit, MatchesCnameSuffix) {
  ProviderCatalog catalog;
  DomainRecord r1;
  r1.fqdn = "assets.shop.com";
  r1.etld1 = "shop.com";
  r1.cname_terminal = "t1.cloudfront.net";
  r1.a_addr = net::IpAddr{net::IPv4Addr(41, 0, 0, 1)};
  r1.aaaa_addr = net::IpAddr{net::IPv6Addr::from_halves(0x2a00ull << 48, 1)};

  DomainRecord r2 = r1;
  r2.fqdn = "img.shop.com";
  r2.cname_terminal = "t2.cloudfront.net";
  r2.aaaa_addr.reset();

  DomainRecord r3 = r1;
  r3.fqdn = "www.other.com";
  r3.cname_terminal = "www.other.com";  // no service suffix

  std::vector<DomainRecord> records{r1, r2, r3};
  auto rows = service_breakdown(records, catalog);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].service_name, "Amazon CloudFront CDN");
  EXPECT_EQ(rows[0].total, 2);
  EXPECT_EQ(rows[0].v6_ready, 1);
  EXPECT_DOUBLE_EQ(rows[0].pct_ready(), 50.0);
}

TEST(ServiceBreakdownUnit, SuffixRequiresLabelBoundary) {
  ProviderCatalog catalog;
  DomainRecord r;
  r.fqdn = "x.test";
  r.etld1 = "x.test";
  r.cname_terminal = "evilcloudfront.net";  // not ".cloudfront.net"
  r.a_addr = net::IpAddr{net::IPv4Addr(41, 0, 0, 1)};
  std::vector<DomainRecord> records{r};
  EXPECT_TRUE(service_breakdown(records, catalog).empty());
}

// --------------------------------------------------- multi-cloud comparison

class MultiCloudUnit : public ::testing::Test {
 protected:
  // Tenant with subdomains on two providers; `full1`/`full2` of them
  // IPv6-full respectively (one subdomain per provider).
  void add_tenant(const std::string& etld1, size_t prov1, bool full1,
                  size_t prov2, bool full2) {
    auto mk = [&](size_t prov, bool full, int k) {
      DomainRecord r;
      r.fqdn = "sub" + std::to_string(k) + "." + etld1;
      r.etld1 = etld1;
      r.cname_terminal = r.fqdn;
      r.a_addr = net::IpAddr{catalog_.v4_address(prov, id_)};
      if (full) r.aaaa_addr = net::IpAddr{catalog_.v6_address(prov, id_)};
      ++id_;
      records_.push_back(std::move(r));
    };
    mk(prov1, full1, 1);
    mk(prov2, full2, 2);
  }

  ProviderCatalog catalog_;
  std::vector<DomainRecord> records_;
  std::uint32_t id_ = 1;
};

TEST_F(MultiCloudUnit, DetectsConsistentPreference) {
  size_t cf = catalog_.find("Cloudflare, Inc.").value();
  size_t ovh = catalog_.find("OVH SAS").value();
  // 12 tenants, all IPv6-full on Cloudflare and not on OVH.
  for (int i = 0; i < 12; ++i)
    add_tenant("tenant" + std::to_string(i) + ".com", cf, true, ovh, false);

  MultiCloudComparison cmp(records_, catalog_);
  EXPECT_EQ(cmp.multi_cloud_tenant_count(), 12);
  ASSERT_EQ(cmp.pairs().size(), 1u);
  const auto& p = cmp.pairs()[0];
  EXPECT_TRUE(p.comparable);
  EXPECT_EQ(p.differing_tenants, 12);
  // org1/org2 order is alphabetical; Cloudflare < OVH.
  EXPECT_EQ(p.org1, "Cloudflare, Inc.");
  EXPECT_GT(p.effect_size_r, 0.9);
  EXPECT_TRUE(p.significant);
}

TEST_F(MultiCloudUnit, NoDifferenceNotSignificant) {
  size_t cf = catalog_.find("Cloudflare, Inc.").value();
  size_t goog = catalog_.find("Google LLC").value();
  for (int i = 0; i < 10; ++i) {
    std::string name = "t";
    name += std::to_string(i);
    name += ".com";
    add_tenant(name, cf, true, goog, true);
  }
  MultiCloudComparison cmp(records_, catalog_);
  ASSERT_EQ(cmp.pairs().size(), 1u);
  EXPECT_FALSE(cmp.pairs()[0].comparable);  // zero differing tenants
  EXPECT_FALSE(cmp.pairs()[0].significant);
}

TEST_F(MultiCloudUnit, SingleCloudTenantsIgnored) {
  size_t cf = catalog_.find("Cloudflare, Inc.").value();
  DomainRecord r;
  r.fqdn = "only.solo.com";
  r.etld1 = "solo.com";
  r.cname_terminal = r.fqdn;
  r.a_addr = net::IpAddr{catalog_.v4_address(cf, 1)};
  records_.push_back(r);
  MultiCloudComparison cmp(records_, catalog_);
  EXPECT_EQ(cmp.multi_cloud_tenant_count(), 0);
}

TEST_F(MultiCloudUnit, MergeMapJoinsEntities) {
  size_t cf1 = catalog_.find("Cloudflare, Inc.").value();
  size_t cf2 = catalog_.find("Cloudflare London, LLC").value();
  size_t ovh = catalog_.find("OVH SAS").value();
  for (int i = 0; i < 6; ++i)
    add_tenant("m" + std::to_string(i) + ".com", i % 2 ? cf1 : cf2, true, ovh,
               false);

  auto merge = core::paper_org_merge_map();
  MultiCloudComparison cmp(records_, catalog_, merge);
  bool found = false;
  for (const auto& p : cmp.pairs()) {
    if (p.org1 == "Cloudflare (All)" || p.org2 == "Cloudflare (All)") {
      found = true;
      EXPECT_EQ(p.differing_tenants, 6);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MultiCloudUnit, WinsCountsSignificantPairs) {
  size_t cf = catalog_.find("Cloudflare, Inc.").value();
  size_t ovh = catalog_.find("OVH SAS").value();
  size_t digo = catalog_.find("DigitalOcean, LLC").value();
  for (int i = 0; i < 10; ++i) {
    add_tenant("x" + std::to_string(i) + ".com", cf, true, ovh, false);
    add_tenant("y" + std::to_string(i) + ".com", cf, true, digo, false);
  }
  MultiCloudComparison cmp(records_, catalog_);
  EXPECT_EQ(cmp.wins("Cloudflare, Inc."), 2);
  EXPECT_EQ(cmp.wins("OVH SAS"), 0);
}

// --------------------------------------------------- end-to-end (core glue)

TEST(CloudEndToEnd, SurveyFeedsCloudReport) {
  cloud::ProviderCatalog providers;
  web::UniverseConfig cfg;
  cfg.site_count = 1500;
  cfg.seed = 31337;
  web::Universe universe(cfg, providers);
  auto survey = core::run_server_survey(universe, web::Epoch::jul2025, 5);
  auto report = core::analyze_cloud(universe, survey);

  ASSERT_FALSE(report.providers.empty());
  EXPECT_EQ(report.providers[0].org, "Overall");
  EXPECT_GT(report.providers[0].total, 1000);

  // Per-row class counts partition each row's total.
  for (const auto& row : report.providers) {
    EXPECT_EQ(row.total, row.v4_only + row.v6_full + row.v6_only) << row.org;
  }

  // Cloudflare should show far higher IPv6-full share than OVH.
  const cloud::ProviderBreakdownRow* cf = nullptr;
  const cloud::ProviderBreakdownRow* ovh = nullptr;
  for (const auto& row : report.providers) {
    if (row.org == "Cloudflare, Inc.") cf = &row;
    if (row.org == "OVH SAS") ovh = &row;
  }
  ASSERT_NE(cf, nullptr);
  if (ovh != nullptr && ovh->total > 30) {
    EXPECT_GT(cf->pct(cf->v6_full), ovh->pct(ovh->v6_full));
  }

  // Service table: always-on services read ~100% ready.
  bool saw_front_door = false;
  for (const auto& svc : report.services) {
    if (svc.service_name == "Azure Front Door CDN" && svc.total >= 5) {
      saw_front_door = true;
      EXPECT_GT(svc.pct_ready(), 95.0);
    }
    if (svc.service_name == "Amazon S3" && svc.total >= 20) {
      EXPECT_LT(svc.pct_ready(), 10.0);
    }
  }
  (void)saw_front_door;  // presence depends on sampling at this scale
}

TEST(CloudEndToEnd, MultiCloudComparisonOnUniverse) {
  cloud::ProviderCatalog providers;
  web::UniverseConfig cfg;
  cfg.site_count = 1500;
  cfg.seed = 424242;
  web::Universe universe(cfg, providers);
  auto survey = core::run_server_survey(universe, web::Epoch::jul2025, 6);
  auto records = core::build_domain_records(universe, survey);
  MultiCloudComparison cmp(records, providers, core::paper_org_merge_map());

  EXPECT_GT(cmp.multi_cloud_tenant_count(), 20);
  EXPECT_GE(cmp.orgs().size(), 3u);
  int comparable = 0;
  for (const auto& p : cmp.pairs()) comparable += p.comparable;
  EXPECT_GT(comparable, 0);
  for (const auto& p : cmp.pairs()) {
    EXPECT_GE(p.effect_size_r, -1.0);
    EXPECT_LE(p.effect_size_r, 1.0);
    if (p.significant) {
      EXPECT_TRUE(p.comparable);
    }
  }
}

// ------------------------------------- domain records vs resolver + PSL

/// What one parity comparison covered, counted on the reference records.
struct ParityCoverage {
  int records = 0;
  int cnamed = 0;         ///< terminal differs from the name
  int aaaa_only = 0;      ///< AAAA without A
  int cnamed_aaaa_only = 0;
  int etld1_is_fqdn = 0;  ///< the name has no registrable domain

};

/// The observed-name walk as a hash set over FQDN ids: each ok crawl's
/// reachable resources, then its main host, first observation wins.
std::vector<std::string> reference_observed_names(
    const web::Universe& universe, const core::ServerSurvey& survey) {
  std::unordered_set<std::uint32_t> seen;
  std::vector<std::string> out;
  auto push = [&](std::uint32_t fqdn) {
    if (seen.insert(fqdn).second) out.push_back(universe.fqdns()[fqdn].name);
  };
  for (const auto& crawl : survey.crawls) {
    if (crawl.fate != web::SiteFate::ok) continue;
    for (const auto& r : crawl.resources)
      if (!r.failed) push(r.fqdn);
    push(universe.sites()[crawl.site_index].main_fqdn);
  }
  return out;
}

std::string describe(const DomainRecord& r) {
  auto addr = [](const std::optional<net::IpAddr>& a) {
    return a ? a->to_string() : std::string("-");
  };
  return r.fqdn + " etld1=" + r.etld1 + " a=" + addr(r.a_addr) +
         " aaaa=" + addr(r.aaaa_addr) + " terminal=" + r.cname_terminal;
}

/// core::build_domain_records on `survey`, compared in order and field by
/// field with a fresh resolver over `zone` and the universe's PSL. Adds
/// what the comparison covered to `cov` and returns the records.
std::vector<DomainRecord> expect_records_match_reference(
    const web::Universe& universe, const dns::ZoneDb& zone,
    const core::ServerSurvey& survey, ParityCoverage& cov) {
  const auto names = testutil::observed_fqdn_names(universe, survey);
  EXPECT_EQ(names, reference_observed_names(universe, survey));
  const auto& psl = universe.psl();
  const auto want = testutil::collect_domain_records(
      dns::Resolver(zone), names, [&psl](std::string_view host) {
        return std::string(psl.registrable_domain(host).value_or(host));
      });
  const auto got = core::build_domain_records(universe, survey);
  EXPECT_EQ(got.size(), want.size());

  int mismatches = 0;
  std::string first;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    const DomainRecord& g = got[i];
    const DomainRecord& w = want[i];
    if (g.fqdn != w.fqdn || g.etld1 != w.etld1 || g.a_addr != w.a_addr ||
        g.aaaa_addr != w.aaaa_addr || g.cname_terminal != w.cname_terminal) {
      if (mismatches++ == 0)
        first = "record " + std::to_string(i) + ": got " + describe(g) +
                ", want " + describe(w);
    }
    ++cov.records;
    cov.cnamed += w.cname_terminal != w.fqdn;
    cov.aaaa_only += w.has_aaaa() && !w.has_a();
    cov.cnamed_aaaa_only +=
        w.has_aaaa() && !w.has_a() && w.cname_terminal != w.fqdn;
    cov.etld1_is_fqdn += !psl.registrable_domain(w.fqdn).has_value();
  }
  EXPECT_EQ(mismatches, 0) << first;
  return got;
}

// At every epoch, on a run_server_survey survey and on one assembled by
// hand from a crawl alone.
TEST(DomainRecordParity, MatchesResolverAndPslAtEveryEpoch) {
  cloud::ProviderCatalog providers;
  web::UniverseConfig cfg;
  cfg.site_count = 2000;
  cfg.seed = 8080;
  const web::Universe universe(cfg, providers);
  ParityCoverage cov;
  for (int e = 0; e < web::kEpochCount; ++e) {
    const auto epoch = static_cast<web::Epoch>(e);
    const dns::ZoneDb zone = universe.build_zone(epoch);
    const auto seed = static_cast<std::uint64_t>(60 + e);
    const auto survey = core::run_server_survey(universe, epoch, seed);
    EXPECT_NE(survey.fqdn_table, nullptr);
    expect_records_match_reference(universe, zone, survey, cov);

    core::ServerSurvey by_hand;
    by_hand.epoch = epoch;
    by_hand.crawls = web::Crawler(universe, zone, epoch).crawl_all(seed + 1);
    expect_records_match_reference(universe, zone, by_hand, cov);
  }
  EXPECT_GT(cov.records, 6 * 1000);
  EXPECT_GT(cov.cnamed, 100);
}

// The universe's zones give every reachable name an A, so this copies the
// zone, name chain by name chain, without the A records of a quarter of the
// dual-stack names and surveys the copy through the crawler's own table:
// AAAA-only names, with and without a CNAME chain, must read their AAAA and
// their terminal from the table.
TEST(DomainRecordParity, AaaaOnlyNamesReadTheirOwnAnswer) {
  cloud::ProviderCatalog providers;
  web::UniverseConfig cfg;
  cfg.site_count = 2000;
  cfg.seed = 8081;
  const web::Universe universe(cfg, providers);
  const auto epoch = web::Epoch::jul2025;
  const dns::ZoneDb full = universe.build_zone(epoch);
  const dns::Resolver full_resolver(full);
  dns::ZoneDb zone;
  const auto& fqdns = universe.fqdns();
  for (std::uint32_t id = 0; id < fqdns.size(); ++id) {
    const auto dual = full_resolver.resolve_dual(fqdns[id].name);
    if (!dual.reachable()) continue;
    const auto& chain = dual.has_v4() ? dual.v4.chain : dual.v6.chain;
    for (std::size_t i = 0; i + 1 < chain.size(); ++i)
      zone.add_cname(chain[i], chain[i + 1]);
    // Terminal names are per FQDN, so no other name loses its A.
    if (id % 4 != 0 || !dual.has_v6())
      for (const auto& a : dual.v4.addresses) zone.add_a(chain.back(), a.v4());
    for (const auto& a : dual.v6.addresses) zone.add_aaaa(chain.back(), a.v6());
  }
  const web::Crawler crawler(universe, zone, epoch);
  core::ServerSurvey survey;
  survey.epoch = epoch;
  survey.crawls = crawler.crawl_all(70);
  survey.fqdn_table = crawler.table();

  ParityCoverage cov;
  expect_records_match_reference(universe, zone, survey, cov);
  EXPECT_GT(cov.aaaa_only, 100);
  EXPECT_GT(cov.cnamed_aaaa_only, 10);
  EXPECT_GT(cov.cnamed - cov.cnamed_aaaa_only, 10);
}

// Sites whose apex sits under the wildcard rule "*.ck" first appear at rank
// 30018: "zone30018.ck" is itself a public suffix, so its record's eTLD+1
// falls back to the name.
TEST(DomainRecordParity, WildcardSuffixFallsBackToTheName) {
  cloud::ProviderCatalog providers;
  web::UniverseConfig cfg;
  cfg.site_count = 60'030;
  cfg.seed = 777;
  const web::Universe universe(cfg, providers);
  const auto epoch = web::Epoch::jul2025;
  ParityCoverage cov;
  const auto records = expect_records_match_reference(
      universe, universe.build_zone(epoch),
      core::run_server_survey(universe, epoch, 3), cov);
  EXPECT_GT(cov.etld1_is_fqdn, 0);
  const auto it = std::find_if(
      records.begin(), records.end(),
      [](const DomainRecord& r) { return r.fqdn == "zone30018.ck"; });
  ASSERT_NE(it, records.end());
  EXPECT_EQ(it->etld1, "zone30018.ck");
}

}  // namespace
}  // namespace nbv6::cloud
