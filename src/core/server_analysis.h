// Server-side adoption analysis (§4): one-call survey of a web universe.
#pragma once

#include <span>
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
};

/// Crawl every site of `universe` at `epoch` and classify. Deterministic
/// in `seed`.
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

/// All distinct resource+main FQDN names observed by a survey — the §5
/// input dataset (the paper's 265k FQDNs).
std::vector<std::string> observed_fqdn_names(const web::Universe& universe,
                                             const ServerSurvey& survey);

}  // namespace nbv6::core
