#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/adoption.h"
#include "core/cloud_analysis.h"
#include "core/server_analysis.h"
#include "reference_domain_records.h"
#include "web/metrics.h"

namespace nbv6::core {
namespace {

TEST(GradedAdoption, LevelsFromFractions) {
  EXPECT_EQ(GradedAdoption::from_fraction(0.0).level, AdoptionLevel::none);
  EXPECT_EQ(GradedAdoption::from_fraction(1.0).level, AdoptionLevel::full);
  EXPECT_EQ(GradedAdoption::from_fraction(0.5).level, AdoptionLevel::partial);
  EXPECT_EQ(GradedAdoption::from_fraction(0.001).level,
            AdoptionLevel::partial);
  EXPECT_EQ(GradedAdoption::from_fraction(0.999).level,
            AdoptionLevel::partial);
}

TEST(GradedAdoption, Names) {
  EXPECT_EQ(to_string(AdoptionLevel::none), "IPv4-only");
  EXPECT_EQ(to_string(AdoptionLevel::partial), "IPv6-partial");
  EXPECT_EQ(to_string(AdoptionLevel::full), "IPv6-full");
}

class SurveyFixture : public ::testing::Test {
 protected:
  SurveyFixture() {
    web::UniverseConfig cfg;
    cfg.site_count = 2000;
    cfg.seed = 555;
    universe_ = std::make_unique<web::Universe>(cfg, providers_);
    survey_ = run_server_survey(*universe_, web::Epoch::jul2025, 3);
  }
  cloud::ProviderCatalog providers_;
  std::unique_ptr<web::Universe> universe_;
  ServerSurvey survey_;
};

TEST_F(SurveyFixture, SurveyIsDeterministic) {
  auto again = run_server_survey(*universe_, web::Epoch::jul2025, 3);
  EXPECT_EQ(again.counts.ipv6_full, survey_.counts.ipv6_full);
  EXPECT_EQ(again.counts.ipv6_partial, survey_.counts.ipv6_partial);
  EXPECT_EQ(again.counts.nxdomain, survey_.counts.nxdomain);
}

TEST_F(SurveyFixture, DifferentSeedsVaryOnlyStochastics) {
  // DNS truths don't depend on the crawl seed, so classification counts
  // move only through Happy-Eyeballs races and link-click choices.
  auto other = run_server_survey(*universe_, web::Epoch::jul2025, 99);
  EXPECT_EQ(other.counts.nxdomain, survey_.counts.nxdomain);
  EXPECT_EQ(other.counts.ipv4_only, survey_.counts.ipv4_only);
  EXPECT_NEAR(other.counts.ipv6_full, survey_.counts.ipv6_full,
              0.1 * survey_.counts.ipv6_full + 20);
}

TEST_F(SurveyFixture, ObservedFqdnsAreUniqueAndReachable) {
  auto names = testutil::observed_fqdn_names(*universe_, survey_);
  EXPECT_GT(names.size(), 1000u);
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
}

TEST_F(SurveyFixture, DomainRecordsResolveConsistently) {
  auto records = build_domain_records(*universe_, survey_);
  EXPECT_GT(records.size(), 1000u);
  for (const auto& r : records) {
    EXPECT_TRUE(r.has_a() || r.has_aaaa()) << r.fqdn;
    EXPECT_FALSE(r.etld1.empty());
    EXPECT_FALSE(r.cname_terminal.empty());
    if (r.a_addr) {
      EXPECT_TRUE(r.a_addr->is_v4());
    }
    if (r.aaaa_addr) {
      EXPECT_TRUE(r.aaaa_addr->is_v6());
    }
  }
}

TEST_F(SurveyFixture, MergeMapCoversBothSplitEntities) {
  auto merge = paper_org_merge_map();
  EXPECT_EQ(merge.at("Cloudflare, Inc."), "Cloudflare (All)");
  EXPECT_EQ(merge.at("Cloudflare London, LLC"), "Cloudflare (All)");
  EXPECT_EQ(merge.at("Akamai International B.V."), "Akamai (All)");
  EXPECT_EQ(merge.at("Akamai Technologies, Inc."), "Akamai (All)");
}

TEST_F(SurveyFixture, VersionSubdomainEstimatorFindsPlantedSites) {
  auto est = web::estimate_version_subdomain_misclassification(
      *universe_, survey_.crawls, survey_.classifications);
  EXPECT_EQ(est.partial_sites, survey_.counts.ipv6_partial);
  EXPECT_GE(est.suspect_sites, 0);
  // The planted rate is 0.4%-ish of sites; suspects are rare but bounded.
  EXPECT_LT(est.fraction(), 0.05);
}

TEST_F(SurveyFixture, VersionSubdomainEstimatorCountsOnlyPureCases) {
  // A hand-built crawl: one partial site whose sole IPv4-only resource is
  // version-marked, one with a mixed set.
  web::SiteCrawl pure;
  pure.fate = web::SiteFate::ok;
  pure.main_has_a = pure.main_has_aaaa = true;
  pure.main_host = universe_->fqdns()[universe_->sites()[0].main_fqdn].name;

  // Find a planted ipv4.* FQDN if present; otherwise skip.
  std::optional<std::uint32_t> marked;
  std::optional<std::uint32_t> unmarked;
  for (std::uint32_t i = 0; i < universe_->fqdns().size(); ++i) {
    const auto& n = universe_->fqdns()[i].name;
    if (n.rfind("ipv4.", 0) == 0) marked = i;
    if (n.rfind("www.", 0) == 0 && !unmarked) unmarked = i;
  }
  if (!marked) GTEST_SKIP() << "no planted version subdomain at this scale";

  web::ResourceObservation obs;
  obs.fqdn = *marked;
  obs.has_a = true;
  obs.has_aaaa = false;
  pure.resources.push_back(obs);

  web::SiteCrawl mixed = pure;
  web::ResourceObservation other;
  other.fqdn = *unmarked;
  other.has_a = true;
  other.has_aaaa = false;
  mixed.resources.push_back(other);

  std::vector<web::SiteCrawl> crawls{pure, mixed};
  auto classifications = web::classify_all(crawls);
  ASSERT_EQ(classifications[0].cls, web::SiteClass::ipv6_partial);
  ASSERT_EQ(classifications[1].cls, web::SiteClass::ipv6_partial);

  auto est = web::estimate_version_subdomain_misclassification(
      *universe_, crawls, classifications);
  EXPECT_EQ(est.partial_sites, 2);
  EXPECT_EQ(est.suspect_sites, 1);
}

}  // namespace
}  // namespace nbv6::core
