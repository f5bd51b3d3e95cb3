// Server-side adoption analysis (§4): one-call survey of a web universe.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "web/classify.h"
#include "web/crawler.h"
#include "web/metrics.h"
#include "web/universe.h"

namespace nbv6::core {

struct ServerSurvey {
  web::Epoch epoch = web::Epoch::jul2025;
  std::vector<web::SiteCrawl> crawls;
  std::vector<web::SiteClassification> classifications;
  web::ClassificationCounts counts;
  /// The crawler's FQDN table at `epoch`, which the cloud attribution
  /// reads by FQDN id. Null in a survey assembled by hand from crawls;
  /// build_domain_records then builds one.
  std::shared_ptr<const web::FqdnTable> fqdn_table;
};

/// Crawl every site of `universe` at `epoch` and classify, keeping the
/// crawler's FQDN table. Deterministic in `seed`.
ServerSurvey run_server_survey(const web::Universe& universe, web::Epoch epoch,
                               std::uint64_t seed);

/// Readiness by top-N rank prefix (Fig. 6). Percentages are of
/// connection-success sites within the prefix.
struct TopNBreakdown {
  int n = 0;
  double pct_v4only = 0;
  double pct_partial = 0;
  double pct_full = 0;
};

std::vector<TopNBreakdown> topn_breakdown(const web::Universe& universe,
                                          const ServerSurvey& survey,
                                          std::span<const int> ns);

/// The §4.2 ablation: classify from main pages only (no link clicks) and
/// report the IPv6-full share difference.
struct LinkClickAblation {
  double pct_full_with_clicks = 0;
  double pct_full_main_only = 0;
};

LinkClickAblation link_click_ablation(const web::Universe& universe,
                                      web::Epoch epoch, std::uint64_t seed);

/// All distinct FQDN ids observed by a survey — the §5 input dataset (the
/// paper's 265k FQDNs): each ok crawl's reachable resources, then its main
/// host, in order of first observation.
std::vector<std::uint32_t> observed_fqdn_ids(const web::Universe& universe,
                                             const ServerSurvey& survey);

}  // namespace nbv6::core
