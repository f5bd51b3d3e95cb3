#include "core/server_analysis.h"

namespace nbv6::core {

ServerSurvey run_server_survey(const web::Universe& universe, web::Epoch epoch,
                               std::uint64_t seed) {
  ServerSurvey s;
  s.epoch = epoch;
  auto zone = universe.build_zone(epoch);
  web::Crawler crawler(universe, zone, epoch);
  s.crawls = crawler.crawl_all(seed);
  s.classifications = web::classify_all(s.crawls);
  s.counts = web::tabulate(s.classifications);
  s.fqdn_table = crawler.table();
  return s;
}

std::vector<TopNBreakdown> topn_breakdown(const web::Universe& universe,
                                          const ServerSurvey& survey,
                                          std::span<const int> ns) {
  std::vector<TopNBreakdown> out;
  for (int n : ns) {
    std::vector<web::SiteClassification> subset;
    for (size_t i = 0; i < survey.crawls.size(); ++i) {
      int rank = universe.sites()[survey.crawls[i].site_index].rank;
      if (rank < n) subset.push_back(survey.classifications[i]);
    }
    auto counts = web::tabulate(subset);
    TopNBreakdown row;
    row.n = n;
    row.pct_v4only = counts.pct_of_success(counts.ipv4_only);
    row.pct_partial = counts.pct_of_success(counts.ipv6_partial);
    row.pct_full = counts.pct_of_success(counts.ipv6_full);
    out.push_back(row);
  }
  return out;
}

LinkClickAblation link_click_ablation(const web::Universe& universe,
                                      web::Epoch epoch, std::uint64_t seed) {
  auto zone = universe.build_zone(epoch);
  web::Crawler crawler(universe, zone, epoch);

  std::vector<web::SiteClassification> with_clicks;
  std::vector<web::SiteClassification> main_only;
  for (std::uint32_t i = 0; i < universe.sites().size(); ++i) {
    stats::Rng rng1 = web::Crawler::site_rng(seed, i);
    stats::Rng rng2 = web::Crawler::site_rng(seed, i);
    with_clicks.push_back(web::classify(crawler.crawl(i, rng1)));
    main_only.push_back(web::classify(crawler.crawl_main_page_only(i, rng2)));
  }
  auto c1 = web::tabulate(with_clicks);
  auto c2 = web::tabulate(main_only);

  LinkClickAblation a;
  a.pct_full_with_clicks = c1.pct_of_success(c1.ipv6_full);
  a.pct_full_main_only = c2.pct_of_success(c2.ipv6_full);
  return a;
}

std::vector<std::uint32_t> observed_fqdn_ids(const web::Universe& universe,
                                             const ServerSurvey& survey) {
  std::vector<bool> seen(universe.fqdns().size());
  std::vector<std::uint32_t> out;
  auto push = [&](std::uint32_t fqdn) {
    if (seen[fqdn]) return;
    seen[fqdn] = true;
    out.push_back(fqdn);
  };
  for (const auto& crawl : survey.crawls) {
    if (crawl.fate != web::SiteFate::ok) continue;
    for (const auto& r : crawl.resources)
      if (!r.failed) push(r.fqdn);
    // The main host itself is part of the observed FQDN population.
    push(universe.sites()[crawl.site_index].main_fqdn);
  }
  return out;
}

}  // namespace nbv6::core
