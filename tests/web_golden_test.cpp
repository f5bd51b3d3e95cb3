// Web-survey golden: the paper's server and cloud side (§4, §5) on a
// 2,000-site universe at all three epochs, serialized canonically and
// compared byte for byte with tests/golden/web_survey_2000.golden.txt.
//
// Per epoch it pins the classification counts and the top-N rows, the
// provider and service rows of the cloud attribution, the span top-20,
// the full what-if curve, and the version-subdomain estimate. So any change
// to the DNS walk, the PSL, the crawler's FQDN table, the crawl, the span
// analysis or the cloud attribution that moves a single figure surfaces as
// a one-line diff here.
//
// Regenerate after an intentional behaviour change with:
//   ./build/web_golden_test --update
// then review the golden diff like any other code change.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "cloud/analysis.h"
#include "cloud/providers.h"
#include "core/cloud_analysis.h"
#include "core/server_analysis.h"
#include "testutil.h"
#include "web/metrics.h"
#include "web/universe.h"

namespace {

using namespace nbv6;

bool g_update_goldens = false;

constexpr int kSites = 2000;
constexpr std::uint64_t kCrawlSeed = 42;

void appendf(std::string& out, const char* fmt, auto... args) {
  char buf[512];
  const int n = std::snprintf(buf, sizeof buf, fmt, args...);
  ASSERT_GT(n, 0);
  ASSERT_LT(static_cast<std::size_t>(n), sizeof buf);
  out.append(buf, static_cast<std::size_t>(n));
}

void serialize_epoch(const web::Universe& u, web::Epoch e, std::string& out) {
  const auto survey = core::run_server_survey(u, e, kCrawlSeed);
  appendf(out, "epoch %s\n", std::string(web::to_string(e)).c_str());

  const auto& c = survey.counts;
  appendf(out, "counts %d %d %d %d %d %d %d %d %d %d %d\n", c.total,
          c.nxdomain, c.other_failure, c.connection_success,
          c.unknown_primary, c.ipv4_only, c.aaaa_enabled, c.ipv6_partial,
          c.ipv6_full, c.full_browser_used_v4, c.full_browser_used_v6_only);
  const int ns[] = {100, 500, 1000, kSites};
  for (const auto& r : core::topn_breakdown(u, survey, ns))
    appendf(out, "topn %d %.17g %.17g %.17g\n", r.n, r.pct_v4only,
            r.pct_partial, r.pct_full);

  const auto cloud = core::analyze_cloud(u, survey);
  for (const auto& r : cloud.providers)
    appendf(out, "provider %s|%d %d %d %d\n", r.org.c_str(), r.total,
            r.v4_only, r.v6_full, r.v6_only);
  for (const auto& r : cloud.services)
    appendf(out, "service %s|%s|%s %d %d\n", r.provider_org.c_str(),
            r.service_name.c_str(),
            std::string(cloud::to_string(r.policy)).c_str(), r.total,
            r.v6_ready);

  const web::SpanAnalysis span(u, survey.crawls, survey.classifications);
  appendf(out, "span partial_sites=%zu first_party_only=%d impacts=%zu\n",
          span.partial_sites().size(), span.first_party_only_count(),
          span.impacts().size());
  const auto& impacts = span.impacts();
  for (std::size_t i = 0; i < impacts.size() && i < 20; ++i) {
    const auto& d = impacts[i];
    appendf(out, "span %s %d %.17g %d", d.etld1.c_str(), d.span,
            d.median_contribution, d.third_party_span);
    for (int n : d.type_site_counts) appendf(out, " %d", n);
    out += '\n';
  }
  const auto curve = span.whatif_adoption_curve();
  for (std::size_t i = 0; i < curve.size(); i += 20) {
    out += "whatif";
    for (std::size_t j = i; j < curve.size() && j < i + 20; ++j)
      appendf(out, " %d", curve[j]);
    out += '\n';
  }

  const auto est = web::estimate_version_subdomain_misclassification(
      u, survey.crawls, survey.classifications);
  appendf(out, "version_subdomain %d %d\n", est.suspect_sites,
          est.partial_sites);
}

TEST(WebGolden, SurveyMatchesGolden) {
  const cloud::ProviderCatalog providers;
  web::UniverseConfig cfg;
  cfg.site_count = kSites;
  const web::Universe u(cfg, providers);

  std::string text;
  for (auto e : {web::Epoch::oct2024, web::Epoch::apr2025, web::Epoch::jul2025})
    serialize_epoch(u, e, text);
  ASSERT_FALSE(HasFailure());

  const std::string path =
      testutil::golden_dir() + "/web_survey_" + std::to_string(kSites) +
      ".golden.txt";
  if (g_update_goldens) {
    ASSERT_TRUE(testutil::write_file(path, text)) << "cannot write " << path;
    return;
  }
  const auto golden = testutil::read_file(path);
  ASSERT_TRUE(golden.has_value())
      << "missing golden " << path
      << " — run ./web_golden_test --update and commit the result";
  EXPECT_EQ(text, *golden)
      << "web survey diverged from golden " << path << ":\n"
      << testutil::first_diff(text, *golden)
      << "\nIf the change is intentional, regenerate with --update and "
         "review the golden diff.";
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--update") g_update_goldens = true;
  return RUN_ALL_TESTS();
}
