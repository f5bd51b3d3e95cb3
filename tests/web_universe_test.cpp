#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/providers.h"
#include "dns/resolver.h"
#include "web/universe.h"

namespace nbv6::web {
namespace {

UniverseConfig small_config() {
  UniverseConfig cfg;
  cfg.site_count = 800;
  cfg.seed = 1234;
  return cfg;
}

class UniverseTest : public ::testing::Test {
 protected:
  UniverseTest() : universe_(small_config(), providers_) {}
  cloud::ProviderCatalog providers_;
  Universe universe_;
};

TEST_F(UniverseTest, BuildsRequestedSites) {
  EXPECT_EQ(universe_.sites().size(), 800u);
  for (size_t i = 0; i < universe_.sites().size(); ++i)
    EXPECT_EQ(universe_.sites()[i].rank, static_cast<int>(i));
}

TEST_F(UniverseTest, EverySiteHasPagesAndResources) {
  for (const auto& site : universe_.sites()) {
    ASSERT_GE(site.page_count, 2u);
    const Page main = universe_.page(site, 0);
    EXPECT_FALSE(main.resources.empty());
    EXPECT_FALSE(main.internal_links.empty());
    for (auto link : main.internal_links) EXPECT_LT(link, site.page_count);
  }
}

// The sites' page ranges tile the pages from 0 in site order, and each
// page's rows tile the three flat arrays in page order, ending at their
// ends.
TEST_F(UniverseTest, PagesPartitionTheArrays) {
  const PageRows& rows = universe_.page_rows();
  const auto& refs = rows.resources.items;
  const auto& internal = rows.internal_links.items;
  const auto& external = rows.external_links.items;
  const ResourceRef* next_ref = refs.data();
  const std::uint32_t* next_internal = internal.data();
  const std::uint32_t* next_external = external.data();
  std::uint32_t next_page = 0;
  for (const auto& site : universe_.sites()) {
    ASSERT_EQ(site.first_page, next_page);
    next_page += site.page_count;
    for (std::uint32_t i = 0; i < site.page_count; ++i) {
      const Page page = universe_.page(site, i);
      ASSERT_EQ(page.resources.data(), next_ref);
      ASSERT_EQ(page.internal_links.data(), next_internal);
      ASSERT_EQ(page.external_links.data(), next_external);
      next_ref += page.resources.size();
      next_internal += page.internal_links.size();
      next_external += page.external_links.size();
      for (auto link : page.internal_links) EXPECT_LT(link, site.page_count);
      for (auto fqdn : page.external_links) {
        ASSERT_LT(fqdn, universe_.fqdns().size());
        EXPECT_NE(universe_.tenants()[universe_.fqdns()[fqdn].tenant].category,
                  DomainCategory::first_party);
      }
    }
  }
  EXPECT_EQ(rows.resources.begin.size(), next_page + 1u);
  EXPECT_EQ(rows.internal_links.begin.size(), next_page + 1u);
  EXPECT_EQ(rows.external_links.begin.size(), next_page + 1u);
  EXPECT_EQ(next_ref, refs.data() + refs.size());
  EXPECT_EQ(next_internal, internal.data() + internal.size());
  EXPECT_EQ(next_external, external.data() + external.size());
}

TEST_F(UniverseTest, ResourceRefPacksIdAndType) {
  for (std::uint32_t fqdn : {0u, kMaxFqdnId}) {
    for (int t = 0; t < kResourceTypeCount; ++t) {
      const auto type = static_cast<ResourceType>(t);
      ResourceRef ref;
      ref.fqdn = fqdn;
      ref.type = type;
      EXPECT_EQ(ref.fqdn, fqdn) << t;
      EXPECT_EQ(ref.type, type) << fqdn;
    }
  }
  EXPECT_EQ(kMaxFqdnId, (1u << 29) - 1);
}

// A size outside 0..kMaxSites is refused before anything is built. (A
// universe at the bound itself would take gigabytes, so none is built.)
TEST(UniverseSize, RejectsNegativeAndAboveTheBound) {
  const cloud::ProviderCatalog providers;
  for (int sites : {-1, kMaxSites + 1}) {
    UniverseConfig cfg;
    cfg.site_count = sites;
    try {
      const Universe u(cfg, providers);
      ADD_FAILURE() << sites << " sites were accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(kMaxSites)),
                std::string::npos)
          << e.what();
    }
  }
}

// Tenants' FQDN ranges partition the FQDN ids in tenant order: each range
// starts where the previous one ends, none is empty, and the last one ends
// at fqdns().size().
TEST_F(UniverseTest, TenantFqdnRangesPartitionTheIds) {
  std::uint32_t next = 0;
  for (const auto& t : universe_.tenants()) {
    EXPECT_EQ(t.first_fqdn, next) << t.etld1;
    EXPECT_GT(t.fqdn_count, 0u) << t.etld1;
    next = t.first_fqdn + t.fqdn_count;
  }
  EXPECT_EQ(next, universe_.fqdns().size());
}

TEST_F(UniverseTest, FqdnTenantLinksAreConsistent) {
  for (std::uint32_t id = 0; id < universe_.fqdns().size(); ++id) {
    const auto& f = universe_.fqdns()[id];
    ASSERT_LT(f.tenant, universe_.tenants().size());
    const auto& t = universe_.tenants()[f.tenant];
    EXPECT_GE(id, t.first_fqdn) << f.name;
    EXPECT_LT(id, t.first_fqdn + t.fqdn_count) << f.name;
    // Every FQDN name ends with its tenant's eTLD+1.
    EXPECT_TRUE(f.name == t.etld1 ||
                f.name.ends_with("." + t.etld1))
        << f.name << " vs " << t.etld1;
    // Canonical, as the crawler's resolver walk requires of its queries.
    EXPECT_TRUE(dns::is_canonical(f.name)) << f.name;
  }
}

TEST_F(UniverseTest, AdoptionIsMonotoneAcrossEpochs) {
  // The per-epoch drift only ever adds AAAA records.
  for (std::uint32_t id = 0; id < universe_.fqdns().size(); ++id) {
    bool prev = universe_.has_aaaa(id, Epoch::oct2024);
    for (auto e : {Epoch::apr2025, Epoch::jul2025}) {
      bool cur = universe_.has_aaaa(id, e);
      EXPECT_TRUE(cur || !prev) << "adoption regressed for fqdn " << id;
      prev = cur;
    }
  }
}

TEST_F(UniverseTest, FailuresGrowAcrossEpochs) {
  int nx[3] = {0, 0, 0};
  for (const auto& site : universe_.sites()) {
    for (int e = 0; e < 3; ++e)
      if (universe_.fate(site, static_cast<Epoch>(e)) == SiteFate::nxdomain)
        ++nx[e];
  }
  EXPECT_LE(nx[0], nx[1]);
  EXPECT_LE(nx[1], nx[2]);
  EXPECT_GT(nx[0], 0);
}

TEST_F(UniverseTest, TopRanksAdoptMoreThanTail) {
  int top_aaaa = 0, top_n = 0, tail_aaaa = 0, tail_n = 0;
  for (const auto& site : universe_.sites()) {
    if (universe_.fate(site, Epoch::jul2025) != SiteFate::ok) continue;
    bool aaaa = universe_.has_aaaa(site.main_fqdn, Epoch::jul2025);
    if (site.rank < 100) {
      ++top_n;
      top_aaaa += aaaa;
    } else if (site.rank >= 400) {
      ++tail_n;
      tail_aaaa += aaaa;
    }
  }
  ASSERT_GT(top_n, 0);
  ASSERT_GT(tail_n, 0);
  EXPECT_GT(static_cast<double>(top_aaaa) / top_n,
            static_cast<double>(tail_aaaa) / tail_n);
}

TEST_F(UniverseTest, ZoneOmitsNxdomainSites) {
  auto zone = universe_.build_zone(Epoch::jul2025);
  dns::Resolver resolver(zone);
  for (const auto& site : universe_.sites()) {
    const auto& name = universe_.fqdns()[site.main_fqdn].name;
    auto res = resolver.resolve_dual(name);
    if (universe_.fate(site, Epoch::jul2025) == SiteFate::nxdomain) {
      EXPECT_FALSE(res.reachable()) << name;
    } else {
      EXPECT_TRUE(res.has_v4()) << name;  // A records are universal
    }
  }
}

TEST_F(UniverseTest, ZoneAaaaMatchesAdoptionModel) {
  auto zone = universe_.build_zone(Epoch::jul2025);
  dns::Resolver resolver(zone);
  int checked = 0;
  for (const auto& site : universe_.sites()) {
    if (universe_.fate(site, Epoch::jul2025) != SiteFate::ok) continue;
    const auto& f = universe_.fqdns()[site.main_fqdn];
    auto res = resolver.resolve_dual(f.name);
    EXPECT_EQ(res.has_v6(), universe_.has_aaaa(site.main_fqdn, Epoch::jul2025))
        << f.name;
    ++checked;
  }
  EXPECT_GT(checked, 500);
}

TEST_F(UniverseTest, ServiceHostedFqdnsHaveCnameChains) {
  auto zone = universe_.build_zone(Epoch::jul2025);
  dns::Resolver resolver(zone);
  int chained = 0;
  for (const auto& f : universe_.fqdns()) {
    if (f.provider < 0 || f.service < 0) continue;
    auto res = resolver.resolve_a(f.name);
    if (res.status != dns::ResolveStatus::ok) continue;
    const auto& svc = providers_.at(static_cast<size_t>(f.provider))
                          .services[static_cast<size_t>(f.service)];
    EXPECT_GE(res.chain.size(), 2u) << f.name;
    EXPECT_TRUE(res.terminal().ends_with(svc.cname_suffix)) << f.name;
    ++chained;
  }
  // Only a modest share of third-party FQDNs ride catalogued services
  // (matching the paper's ~20k of 430k), so the count is small at this
  // universe size but must be present.
  EXPECT_GT(chained, 15);
}

TEST_F(UniverseTest, ProviderAddressesAttributeBack) {
  auto zone = universe_.build_zone(Epoch::jul2025);
  dns::Resolver resolver(zone);
  int attributed = 0;
  for (const auto& f : universe_.fqdns()) {
    if (f.provider < 0) continue;
    auto res = resolver.resolve_a(f.name);
    if (res.status != dns::ResolveStatus::ok) continue;
    auto prov = providers_.provider_of(res.addresses.front());
    ASSERT_TRUE(prov.has_value()) << f.name;
    // The A record may sit in a partner's space (Bunnyway quirk).
    auto expected = providers_.a_record_host(static_cast<size_t>(f.provider))
                        .value_or(static_cast<size_t>(f.provider));
    EXPECT_EQ(*prov, expected) << f.name;
    ++attributed;
    if (attributed > 400) break;
  }
  EXPECT_GT(attributed, 100);
}

TEST_F(UniverseTest, BunnywayQuirkSplitsFamilies) {
  auto bunny = providers_.find("BUNNYWAY, informacijske storitve d.o.o.");
  auto datacamp = providers_.find("Datacamp Limited");
  ASSERT_TRUE(bunny && datacamp);
  auto zone = universe_.build_zone(Epoch::jul2025);
  dns::Resolver resolver(zone);

  int seen = 0;
  for (const auto& f : universe_.fqdns()) {
    if (f.provider != static_cast<int>(*bunny)) continue;
    auto dual = resolver.resolve_dual(f.name);
    if (dual.has_v4()) {
      EXPECT_EQ(providers_.provider_of(dual.v4.addresses.front()), *datacamp);
      ++seen;
    }
    if (dual.has_v6()) {
      EXPECT_EQ(providers_.provider_of(dual.v6.addresses.front()), *bunny);
    }
  }
  EXPECT_GT(seen, 0);
}

TEST_F(UniverseTest, CategorizerKnowsThirdParties) {
  EXPECT_EQ(universe_.categorize("doubleclick.net"), DomainCategory::ads);
  EXPECT_EQ(universe_.categorize("demdex.net"), DomainCategory::trackers);
  EXPECT_FALSE(universe_.categorize("unknown-domain.example").has_value());
}

// Every tenant's eTLD+1 maps to its category, names that share a prefix
// included (site1.*, site10.*, site100.*), and names that sort before the
// first entry or after the last one map to none.
TEST_F(UniverseTest, CategorizerKnowsEveryTenant) {
  std::string first = universe_.tenants()[0].etld1;
  std::string last = first;
  for (const auto& t : universe_.tenants()) {
    EXPECT_EQ(universe_.categorize(t.etld1), t.category) << t.etld1;
    first = std::min(first, t.etld1);
    last = std::max(last, t.etld1);
  }
  for (int rank : {1, 10, 100}) {
    const auto& site = universe_.sites()[static_cast<std::size_t>(rank)];
    const auto& name = universe_.tenants()[site.tenant].etld1;
    ASSERT_TRUE(name.starts_with("site" + std::to_string(rank) + ".")) << name;
    EXPECT_EQ(universe_.categorize(name), DomainCategory::first_party) << name;
  }
  EXPECT_FALSE(universe_.categorize("site1").has_value());
  EXPECT_FALSE(universe_.categorize("").has_value());
  EXPECT_FALSE(
      universe_.categorize(first.substr(0, first.size() - 1)).has_value());
  EXPECT_FALSE(universe_.categorize(last + "a").has_value());
}

TEST_F(UniverseTest, DeterministicBySeed) {
  Universe again(small_config(), providers_);
  ASSERT_EQ(again.fqdns().size(), universe_.fqdns().size());
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(again.fqdns()[i].name, universe_.fqdns()[i].name);
    EXPECT_EQ(again.fqdns()[i].adopt_u, universe_.fqdns()[i].adopt_u);
  }
}

TEST(ProviderCatalogTest, Top15PlusTail) {
  cloud::ProviderCatalog catalog;
  EXPECT_GE(catalog.size(), 16u);
  EXPECT_TRUE(catalog.find("Cloudflare, Inc."));
  EXPECT_TRUE(catalog.find("Amazon.com, Inc."));
  EXPECT_FALSE(catalog.find("Nonexistent Cloud"));
}

TEST(ProviderCatalogTest, AddressPlanRoundTrips) {
  cloud::ProviderCatalog catalog;
  // First, a middle and the last host index of each provider's slot: v4
  // indices wrap at 2^20 - 1 inside the /12, v6 ones at 2^32 - 1.
  for (size_t p = 0; p < catalog.size(); ++p) {
    for (std::uint32_t i : {0u, 12345u, 0xffffeu}) {
      const auto v4 = catalog.v4_address(p, i);
      EXPECT_EQ(catalog.provider_of(net::IpAddr{v4}), p)
          << catalog.at(p).org_name << " " << v4.to_string();
    }
    for (std::uint32_t i : {0u, 12345u, 0xfffffffeu}) {
      const auto v6 = catalog.v6_address(p, i);
      EXPECT_EQ(catalog.provider_of(net::IpAddr{v6}), p)
          << catalog.at(p).org_name << " " << v6.to_string();
    }
  }
  EXPECT_EQ(catalog.v4_address(0, 0), net::IPv4Addr(40, 0, 0, 1));
  EXPECT_EQ(catalog.v4_address(0, 0xffffeu), net::IPv4Addr(40, 15, 255, 255));

  // The edges of the plan: inside the first and last AS slot of each
  // family, and just outside them.
  std::uint32_t slots = 0;
  for (const auto& p : catalog.providers())
    slots += static_cast<std::uint32_t>(p.asns.size());
  auto attributed = [&](net::IpAddr a) {
    return catalog.provider_of(a).has_value();
  };
  // v4: one /12 per AS slot from 40.0.0.0 on.
  const std::uint32_t v4_end = (40u << 24) + (slots << 20);
  EXPECT_FALSE(attributed(net::IPv4Addr(39, 255, 255, 255)));
  EXPECT_TRUE(attributed(net::IPv4Addr(40, 0, 0, 0)));
  EXPECT_TRUE(attributed(net::IPv4Addr(v4_end - 1)));
  EXPECT_FALSE(attributed(net::IPv4Addr(v4_end)));
  // v6: one /44 per AS slot, 2^24 apart in the high half, from 2a00:: on.
  const std::uint64_t first_hi = 0x2a00ull << 48;
  const std::uint64_t last_hi =
      first_hi | (static_cast<std::uint64_t>(slots - 1) << 24);
  EXPECT_FALSE(attributed(net::IPv6Addr::from_halves(first_hi - 1, ~0ull)));
  EXPECT_TRUE(attributed(net::IPv6Addr::from_halves(first_hi, 0)));
  EXPECT_TRUE(attributed(net::IPv6Addr::from_halves(last_hi | 0xfffff, ~0ull)));
  EXPECT_FALSE(attributed(net::IPv6Addr::from_halves(last_hi + (1 << 20), 0)));
}

TEST(ProviderCatalogTest, OrgOfAsnJoins) {
  cloud::ProviderCatalog catalog;
  EXPECT_EQ(catalog.as_map().name(13335), "Cloudflare, Inc.");
  EXPECT_EQ(catalog.as_map().name(16509), "Amazon.com, Inc.");
  EXPECT_EQ(catalog.as_map().name(999999999), "AS999999999");
}

TEST(ProviderCatalogTest, ServicePoliciesMatchPaper) {
  cloud::ProviderCatalog catalog;
  auto ms = catalog.find("Microsoft Corporation").value();
  bool found_front_door = false;
  for (const auto& s : catalog.at(ms).services) {
    if (s.name == "Azure Front Door CDN") {
      found_front_door = true;
      EXPECT_EQ(s.policy, cloud::V6Policy::always_on);
      EXPECT_DOUBLE_EQ(s.v6_adoption, 1.0);
    }
  }
  EXPECT_TRUE(found_front_door);

  auto amazon = catalog.find("Amazon.com, Inc.").value();
  bool found_s3 = false;
  for (const auto& s : catalog.at(amazon).services) {
    if (s.name == "Amazon S3") {
      found_s3 = true;
      EXPECT_EQ(s.policy, cloud::V6Policy::opt_in_code);
      EXPECT_LT(s.v6_adoption, 0.01);  // 0.4% after nine years
    }
  }
  EXPECT_TRUE(found_s3);
}

}  // namespace
}  // namespace nbv6::web
