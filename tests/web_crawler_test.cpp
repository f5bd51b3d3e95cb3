#include <gtest/gtest.h>

#include <map>
#include <span>
#include <stdexcept>
#include <tuple>

#include "core/server_analysis.h"
#include "dns/resolver.h"
#include "web/classify.h"
#include "web/crawler.h"
#include "web/metrics.h"
#include "web/universe.h"

namespace nbv6::web {
namespace {

UniverseConfig small_config() {
  UniverseConfig cfg;
  cfg.site_count = 1200;
  cfg.seed = 777;
  return cfg;
}

class CrawlerTest : public ::testing::Test {
 protected:
  CrawlerTest()
      : universe_(small_config(), providers_),
        zone_(universe_.build_zone(Epoch::jul2025)),
        crawler_(universe_, zone_, Epoch::jul2025) {}

  cloud::ProviderCatalog providers_;
  Universe universe_;
  dns::ZoneDb zone_;
  Crawler crawler_;
};

TEST_F(CrawlerTest, CrawlMatchesSiteFate) {
  stats::Rng rng(1);
  for (std::uint32_t i = 0; i < 200; ++i) {
    auto crawl = crawler_.crawl(i, rng);
    EXPECT_EQ(crawl.fate,
              universe_.fate(universe_.sites()[i], Epoch::jul2025));
  }
}

TEST_F(CrawlerTest, OkCrawlLoadsResources) {
  stats::Rng rng(2);
  int ok = 0;
  for (std::uint32_t i = 0; i < 300; ++i) {
    auto crawl = crawler_.crawl(i, rng);
    if (crawl.fate != SiteFate::ok) continue;
    ++ok;
    EXPECT_FALSE(crawl.resources.empty()) << i;
    EXPECT_GE(crawl.pages_loaded, 1);
    EXPECT_LE(crawl.pages_loaded, 6);  // main + up to 5 clicks
    EXPECT_FALSE(crawl.main_host.empty());
  }
  EXPECT_GT(ok, 200);
}

TEST_F(CrawlerTest, ResourcesAreDeduplicated) {
  stats::Rng rng(3);
  for (std::uint32_t i = 0; i < 100; ++i) {
    auto crawl = crawler_.crawl(i, rng);
    std::set<std::pair<std::uint32_t, int>> seen;
    for (const auto& r : crawl.resources) {
      auto key = std::pair{r.fqdn, static_cast<int>(r.type)};
      EXPECT_TRUE(seen.insert(key).second) << "dup resource on site " << i;
    }
  }
}

TEST_F(CrawlerTest, FirstPartyDetectionUsesEtld1) {
  stats::Rng rng(4);
  for (std::uint32_t i = 0; i < 150; ++i) {
    auto crawl = crawler_.crawl(i, rng);
    if (crawl.fate != SiteFate::ok || crawl.unknown_primary) continue;
    const auto& site_tenant =
        universe_.tenants()[universe_.sites()[i].tenant];
    for (const auto& r : crawl.resources) {
      bool same_tenant =
          universe_.fqdns()[r.fqdn].tenant == universe_.sites()[i].tenant;
      EXPECT_EQ(r.first_party, same_tenant)
          << universe_.fqdns()[r.fqdn].name << " on " << site_tenant.etld1;
    }
  }
}

// The prefix law: the main page's draws come first, so for every site at
// every epoch a main-page-only crawl from the site's stream has the full
// crawl's main-host fields, and its N observations are the full crawl's
// first N, field by field.
TEST_F(CrawlerTest, MainPageOnlySeesSubsetOfResources) {
  const auto fields = [](const ResourceObservation& r) {
    return std::tuple(r.fqdn, r.type, r.first_party, r.has_a, r.has_aaaa,
                      r.used, r.failed);
  };
  std::size_t prefix_obs = 0;
  int strict = 0;
  for (int e = 0; e < kEpochCount; ++e) {
    const auto epoch = static_cast<Epoch>(e);
    const dns::ZoneDb zone = universe_.build_zone(epoch);
    const Crawler crawler(universe_, zone, epoch);
    const std::uint64_t seed = 50 + static_cast<std::uint64_t>(e);
    for (std::uint32_t i = 0; i < universe_.sites().size(); ++i) {
      stats::Rng rng1 = Crawler::site_rng(seed, i);
      stats::Rng rng2 = Crawler::site_rng(seed, i);
      const auto full = crawler.crawl(i, rng1);
      const auto main_only = crawler.crawl_main_page_only(i, rng2);
      ASSERT_EQ(main_only.fate, full.fate) << i;
      EXPECT_EQ(main_only.unknown_primary, full.unknown_primary) << i;
      EXPECT_EQ(main_only.main_has_a, full.main_has_a) << i;
      EXPECT_EQ(main_only.main_has_aaaa, full.main_has_aaaa) << i;
      EXPECT_EQ(main_only.main_used, full.main_used) << i;
      EXPECT_EQ(main_only.main_host, full.main_host) << i;
      ASSERT_LE(main_only.resources.size(), full.resources.size()) << i;
      for (std::size_t k = 0; k < main_only.resources.size(); ++k)
        ASSERT_EQ(fields(main_only.resources[k]), fields(full.resources[k]))
            << "site " << i << " observation " << k << " at epoch " << e;
      prefix_obs += main_only.resources.size();
      strict += main_only.resources.size() < full.resources.size();
      EXPECT_EQ(main_only.pages_loaded, full.fate == SiteFate::ok ? 1 : 0);
    }
  }
  EXPECT_GT(prefix_obs, 10'000u);
  EXPECT_GT(strict, 1'000);
}

TEST_F(CrawlerTest, DualStackResourcesPreferV6) {
  stats::Rng rng(5);
  int dual = 0, used_v6 = 0;
  for (std::uint32_t i = 0; i < 300; ++i) {
    auto crawl = crawler_.crawl(i, rng);
    for (const auto& r : crawl.resources) {
      if (r.has_a && r.has_aaaa) {
        ++dual;
        used_v6 += r.used == net::Family::v6;
      } else if (r.has_a) {
        EXPECT_EQ(r.used, net::Family::v4);
      }
    }
  }
  ASSERT_GT(dual, 100);
  // Happy Eyeballs: v6 nearly always wins for dual-stack fetches.
  EXPECT_GT(static_cast<double>(used_v6) / dual, 0.98);
}

// Every field the crawler derives from DNS or the PSL agrees with a fresh
// resolver over the epoch's zone and with the universe's PSL, for every
// fixture site at every epoch.
TEST_F(CrawlerTest, ObservationsMatchResolverAndPsl) {
  const auto& psl = universe_.psl();
  for (int e = 0; e < kEpochCount; ++e) {
    const auto epoch = static_cast<Epoch>(e);
    const dns::ZoneDb zone = universe_.build_zone(epoch);
    const dns::Resolver resolver(zone);
    const auto crawls = Crawler(universe_, zone, epoch).crawl_all(20 + e);
    ASSERT_EQ(crawls.size(), universe_.sites().size());
    int ok = 0;
    for (const auto& c : crawls) {
      const Site& site = universe_.sites()[c.site_index];
      const auto& main_name = universe_.fqdns()[site.main_fqdn].name;
      EXPECT_EQ(c.fate == SiteFate::nxdomain,
                !resolver.resolve_dual(main_name).reachable())
          << main_name << " at " << to_string(epoch);
      if (c.fate != SiteFate::ok) continue;
      ++ok;
      const auto main = resolver.resolve_dual(c.main_host);
      EXPECT_EQ(c.main_has_a, main.has_v4()) << c.main_host;
      EXPECT_EQ(c.main_has_aaaa, main.has_v6()) << c.main_host;
      EXPECT_EQ(c.unknown_primary,
                !psl.registrable_domain(c.main_host).has_value())
          << c.main_host;
      for (const auto& r : c.resources) {
        const auto& name = universe_.fqdns()[r.fqdn].name;
        const auto dual = resolver.resolve_dual(name);
        EXPECT_EQ(r.has_a, dual.has_v4()) << name;
        EXPECT_EQ(r.has_aaaa, dual.has_v6()) << name;
        EXPECT_EQ(r.failed, !dual.reachable()) << name;
        EXPECT_EQ(r.first_party, psl.same_site(name, c.main_host))
            << name << " on " << c.main_host;
      }
    }
    EXPECT_GT(ok, 900) << to_string(epoch);
  }
}

// Sites whose apex sits under the wildcard rule "*.ck" first appear at rank
// 30018, past the fixture universe, so this builds a universe just large
// enough to hold two of them. Site 30018 is itself a public suffix; site
// 60029 redirects to "www.zone60029.ck", which is its own registrable
// domain, so its "static."/"img."/"api." siblings are third party even
// though the universe files them under the same tenant.
TEST(CrawlerWildcardPsl, SuffixSitesClassifyByRegistrableDomain) {
  cloud::ProviderCatalog providers;
  UniverseConfig cfg;
  cfg.site_count = 60'030;
  cfg.seed = 777;
  const Universe universe(cfg, providers);
  const dns::ZoneDb zone = universe.build_zone(Epoch::jul2025);
  const Crawler crawler(universe, zone, Epoch::jul2025);

  stats::Rng rng1(1);
  const auto suffix_site = crawler.crawl(30018, rng1);
  EXPECT_EQ(universe.fqdns()[universe.sites()[30018].main_fqdn].name,
            "zone30018.ck");
  ASSERT_EQ(suffix_site.fate, SiteFate::ok);
  EXPECT_TRUE(suffix_site.unknown_primary);
  EXPECT_EQ(classify(suffix_site).cls, SiteClass::unknown_primary);
  ASSERT_FALSE(suffix_site.resources.empty());
  for (const auto& r : suffix_site.resources)
    EXPECT_FALSE(r.first_party) << universe.fqdns()[r.fqdn].name;

  stats::Rng rng2(2);
  const auto www_site = crawler.crawl(60029, rng2);
  ASSERT_EQ(www_site.fate, SiteFate::ok);
  ASSERT_EQ(www_site.main_host, "www.zone60029.ck");
  EXPECT_FALSE(www_site.unknown_primary);
  int www = 0, siblings = 0;
  for (const auto& r : www_site.resources) {
    const auto& f = universe.fqdns()[r.fqdn];
    const bool is_www = f.name == "www.zone60029.ck";
    EXPECT_EQ(r.first_party, is_www) << f.name;
    www += is_www;
    siblings += !is_www && f.tenant == universe.sites()[60029].tenant;
  }
  EXPECT_GT(www, 0);
  EXPECT_GT(siblings, 0);
}

// ------------------------------------------------------------ classify

TEST_F(CrawlerTest, ClassificationPartitionIsExact) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 9);
  const auto& c = survey.counts;
  EXPECT_EQ(c.total, 1200);
  EXPECT_EQ(c.total, c.nxdomain + c.other_failure + c.connection_success);
  EXPECT_EQ(c.connection_success,
            c.unknown_primary + c.ipv4_only + c.aaaa_enabled);
  EXPECT_EQ(c.aaaa_enabled, c.ipv6_partial + c.ipv6_full);
  EXPECT_EQ(c.ipv6_full,
            c.full_browser_used_v4 + c.full_browser_used_v6_only);
}

TEST_F(CrawlerTest, FullSitesHaveNoV4OnlyResources) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 10);
  for (size_t i = 0; i < survey.crawls.size(); ++i) {
    const auto& cls = survey.classifications[i];
    if (cls.cls == SiteClass::ipv6_full) {
      EXPECT_EQ(cls.v4only_resources, 0);
    }
    if (cls.cls == SiteClass::ipv6_partial) {
      EXPECT_GT(cls.v4only_resources, 0);
      EXPECT_GT(cls.v4only_fraction, 0.0);
      EXPECT_LE(cls.v4only_fraction, 1.0);
    }
  }
}

TEST_F(CrawlerTest, Ipv4OnlySitesLackMainAaaa) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 11);
  for (size_t i = 0; i < survey.crawls.size(); ++i) {
    if (survey.classifications[i].cls == SiteClass::ipv4_only) {
      EXPECT_FALSE(survey.crawls[i].main_has_aaaa);
    }
  }
}

TEST_F(CrawlerTest, AdoptionGrowsAcrossEpochs) {
  auto oct = core::run_server_survey(universe_, Epoch::oct2024, 12);
  auto jul = core::run_server_survey(universe_, Epoch::jul2025, 12);
  EXPECT_GE(jul.counts.pct_of_success(jul.counts.aaaa_enabled),
            oct.counts.pct_of_success(oct.counts.aaaa_enabled));
  EXPECT_GE(jul.counts.nxdomain, oct.counts.nxdomain);
}

TEST_F(CrawlerTest, TopNBreakdownGradient) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 13);
  std::vector<int> ns{100, 1200};
  auto rows = core::topn_breakdown(universe_, survey, ns);
  ASSERT_EQ(rows.size(), 2u);
  // Top-100 sites should be more IPv6-ready than the whole list.
  EXPECT_GT(rows[0].pct_full + rows[0].pct_partial,
            rows[1].pct_full + rows[1].pct_partial);
}

TEST_F(CrawlerTest, LinkClickAblationFindsMoreFullSitesMainOnly) {
  auto ab = core::link_click_ablation(universe_, Epoch::jul2025, 14);
  // Fewer pages -> fewer chances to hit an IPv4-only resource.
  EXPECT_GE(ab.pct_full_main_only, ab.pct_full_with_clicks);
}

// The ablation's with-clicks arm draws each site's RNG the way crawl_all
// does, so it reproduces the survey's IPv6-full share exactly.
TEST_F(CrawlerTest, LinkClickAblationWithClicksIsTheSurvey) {
  const auto ab = core::link_click_ablation(universe_, Epoch::jul2025, 14);
  const auto survey = core::run_server_survey(universe_, Epoch::jul2025, 14);
  EXPECT_EQ(ab.pct_full_with_clicks,
            survey.counts.pct_of_success(survey.counts.ipv6_full));
}

// ------------------------------------------------------------ metrics

TEST_F(CrawlerTest, SpanAnalysisInvariants) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 15);
  SpanAnalysis span(universe_, survey.crawls, survey.classifications);

  EXPECT_EQ(span.partial_sites().size(),
            static_cast<size_t>(survey.counts.ipv6_partial));

  int prev = INT32_MAX;
  for (const auto& d : span.impacts()) {
    EXPECT_LE(d.span, prev);  // sorted descending
    prev = d.span;
    EXPECT_GE(d.span, 1);
    EXPECT_GE(d.median_contribution, 0.0);
    EXPECT_LE(d.median_contribution, 1.0);
    EXPECT_LE(d.third_party_span, d.span);
  }

  // Each partial site's per-domain counts sum to its v4-only resources.
  for (const auto& site : span.partial_sites()) {
    int sum = 0;
    for (const auto& [_, n] : site.v4only_domains) sum += n;
    EXPECT_EQ(sum, site.v4only_resources);
    EXPECT_GT(site.v4only_resources, 0);
    EXPECT_LE(site.v4only_resources, site.total_resources);
  }

  // §4.3's easily fixable sites: partial only through first-party
  // IPv4-only resources.
  std::map<std::uint32_t, const SiteCrawl*> crawl_of;
  for (const auto& c : survey.crawls) crawl_of[c.site_index] = &c;
  int first_party_only = 0;
  for (const auto& site : span.partial_sites()) {
    if (!site.only_first_party_v4only) continue;
    ++first_party_only;
    EXPECT_TRUE(site.has_first_party_v4only);
    for (const auto& r : crawl_of.at(site.site_index)->resources) {
      const bool v4only = !r.failed && r.has_a && !r.has_aaaa;
      EXPECT_FALSE(v4only && !r.first_party) << site.site_index;
    }
  }
  EXPECT_GT(first_party_only, 0);  // the checks above are not vacuous
  EXPECT_EQ(span.first_party_only_count(), first_party_only);
}

TEST_F(CrawlerTest, SpanAnalysisRejectsMissingClassification) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 15);
  ASSERT_FALSE(survey.classifications.empty());
  const std::span<const SiteClassification> short_by_one(
      survey.classifications.data(), survey.classifications.size() - 1);
  EXPECT_THROW(SpanAnalysis(universe_, survey.crawls, short_by_one),
               std::invalid_argument);
  EXPECT_THROW(estimate_version_subdomain_misclassification(
                   universe_, survey.crawls, short_by_one),
               std::invalid_argument);
}

TEST_F(CrawlerTest, HeavyHittersRespectThreshold) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 16);
  SpanAnalysis span(universe_, survey.crawls, survey.classifications);
  auto hh = span.heavy_hitters(20);
  for (const auto& d : hh) EXPECT_GE(d.span, 20);
  // Threshold 1 returns everything.
  EXPECT_EQ(span.heavy_hitters(1).size(), span.impacts().size());
}

TEST_F(CrawlerTest, WhatIfCurveIsMonotoneAndTerminal) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 17);
  SpanAnalysis span(universe_, survey.crawls, survey.classifications);
  auto curve = span.whatif_adoption_curve();
  ASSERT_FALSE(curve.empty());
  int prev = 0;
  for (int v : curve) {
    EXPECT_GE(v, prev);
    prev = v;
  }
  // Enabling every IPv4-only dependency fixes every partial site.
  EXPECT_EQ(curve.back(),
            static_cast<int>(span.partial_sites().size()));
}

TEST_F(CrawlerTest, WhatIfTopDomainsFixDisproportionately) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 18);
  SpanAnalysis span(universe_, survey.crawls, survey.classifications);
  auto curve = span.whatif_adoption_curve();
  if (curve.size() < 100) GTEST_SKIP() << "universe too small";
  // The first 10% of domains fix more sites than the last 10%.
  size_t tenth = curve.size() / 10;
  int first = curve[tenth - 1];
  int last = curve.back() - curve[curve.size() - tenth - 1];
  EXPECT_GT(first, last);
}

TEST_F(CrawlerTest, AdsDominateHeavyHitterCategories) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 19);
  SpanAnalysis span(universe_, survey.crawls, survey.classifications);
  auto hh = span.heavy_hitters(10);
  if (hh.size() < 20) GTEST_SKIP() << "universe too small";
  std::map<DomainCategory, int> counts;
  for (const auto& d : hh) {
    auto cat = universe_.categorize(d.etld1);
    if (cat) ++counts[*cat];
  }
  // Ads should be the plurality category (Fig. 9's headline).
  int ads = counts[DomainCategory::ads];
  for (const auto& [cat, n] : counts) {
    if (cat == DomainCategory::ads) continue;
    EXPECT_GE(ads, n) << "category " << to_string(cat);
  }
}

}  // namespace
}  // namespace nbv6::web
