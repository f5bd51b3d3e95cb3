// Ablation experiments for the measurement choices the paper discusses:
//   1. Crawl depth: main page only vs +5 same-site link clicks (§4.2 notes
//      main-page-only inflates IPv6-full from 12.5% to 14.1%).
//   2. Byte- vs flow-based client fractions (§3.2: Happy Eyeballs duplicate
//      flows make flow fractions look more stable/balanced than bytes).
//   3. Happy Eyeballs duplicate-flow probability: its effect on flow-level
//      IPv6 fractions at a fixed byte-level ground truth.
//   4. AS-level vs domain-level service attribution (§3.4: reverse DNS of
//      cloud-hosted services collapses to the cloud's domain).
//   5. Version-specific subdomains (§4.4: a site whose only IPv4-only FQDNs
//      carry v4/ipv4/px4 markers may be misclassified as IPv6-partial).
#include <map>

#include "paper.h"

using namespace nbv6;

namespace {

void ablation_crawl_depth(const web::Universe& universe) {
  bench::section("Ablation 1: crawl depth (main page only vs +5 link clicks)");
  auto ab = core::link_click_ablation(universe, web::Epoch::jul2025, 42);
  std::printf("  IPv6-full with 5 link clicks: %.1f%%\n",
              ab.pct_full_with_clicks);
  std::printf("  IPv6-full main page only:     %.1f%%\n",
              ab.pct_full_main_only);
  std::printf("  inflation from shallow crawling: %.1f points (paper: 1.6)\n",
              ab.pct_full_main_only - ab.pct_full_with_clicks);
}

void ablation_bytes_vs_flows(
    const std::vector<engine::ResidenceRun>& residences) {
  bench::section("Ablation 2: byte- vs flow-based IPv6 fractions");
  for (const auto& r : residences) {
    auto bytes = r.monitor.daily_v6_fractions(flowmon::Scope::external, true);
    auto flows = r.monitor.daily_v6_fractions(flowmon::Scope::external, false);
    std::printf(
        "  Residence %s: daily byte-fraction sd=%.3f, flow-fraction sd=%.3f "
        "(flows steadier: %s)\n",
        r.config.name.c_str(), stats::stddev(bytes), stats::stddev(flows),
        stats::stddev(flows) < stats::stddev(bytes) ? "yes" : "no");
  }
}

void ablation_dup_flows() {
  bench::section("Ablation 3: Happy Eyeballs duplicate-flow probability");
  stats::Rng rng(7);
  for (double dup : {0.0, 0.35, 0.7}) {
    traffic::HappyEyeballsConfig cfg;
    cfg.dup_flow_prob = dup;
    int v6_flows = 0, total_flows = 0;
    const int sessions = 20000;
    for (int i = 0; i < sessions; ++i) {
      auto d = traffic::happy_eyeballs_race(true, true, true, 18, 18, rng, cfg);
      ++total_flows;
      if (d.used == net::Family::v6) ++v6_flows;
      if (d.opened_both) ++total_flows;  // the loser's near-empty flow
    }
    std::printf(
        "  dup_prob=%.2f: flow-level IPv6 fraction %.3f (byte-level truth "
        "~1.0 for dual-stack)\n",
        dup, static_cast<double>(v6_flows) / total_flows);
  }
}

void ablation_as_vs_domain(const traffic::ServiceCatalog& catalog,
                           const engine::ResidenceRun& r) {
  bench::section("Ablation 4: AS-level vs domain-level attribution");
  auto by_as = core::as_usage(r.monitor, catalog.as_map(), 0.0);
  auto by_domain = core::domain_usage(r.monitor, catalog, 0);
  std::printf("  Residence A: %zu ASes vs %zu reverse-DNS domains\n",
              by_as.size(), by_domain.size());
  // Domains that several ASes collapse into (the cloud-canonical-name
  // limitation): amazonaws.com spans AMAZON-02 and AMAZON-AES, etc.
  std::map<std::string, int> domain_as_count;
  for (const auto& a : by_as) {
    auto idx = catalog.find_by_asn(a.asn);
    if (idx) ++domain_as_count[catalog.at(*idx).rdns_domain];
  }
  for (const auto& [domain, n] : domain_as_count)
    if (n > 1)
      std::printf("  domain %-28s aggregates %d distinct ASes\n",
                  domain.c_str(), n);
}

void ablation_version_subdomains(const web::Universe& universe) {
  bench::section(
      "Ablation 5: version-specific subdomain misclassification (Sec 4.4)");
  auto survey = core::run_server_survey(universe, web::Epoch::jul2025, 42);
  auto est = web::estimate_version_subdomain_misclassification(
      universe, survey.crawls, survey.classifications);
  std::printf(
      "  suspect sites (all IPv4-only FQDNs carry v4/ipv4/px4 markers): %d "
      "of %d partial (%.2f%%)\n",
      est.suspect_sites, est.partial_sites, 100.0 * est.fraction());
  std::printf("  paper reference: 106 of ~24k partial sites (0.4%%)\n");
}

}  // namespace

void bench::ablations(const traffic::ServiceCatalog& catalog,
                      const std::vector<engine::ResidenceRun>& residences,
                      const cloud::ProviderCatalog& providers, int sites) {
  // Ablations 1 and 5 share one universe of at most 30,000 sites.
  web::UniverseConfig cfg;
  cfg.site_count = std::min(30000, sites);
  const web::Universe universe(cfg, providers);
  ablation_crawl_depth(universe);
  ablation_bytes_vs_flows(residences);
  ablation_dup_flows();
  ablation_as_vs_domain(catalog, residences[0]);
  ablation_version_subdomains(universe);
}
