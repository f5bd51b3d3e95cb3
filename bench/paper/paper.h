// The paper binary's sections: one function per figure, table and the
// ablations, each printing what its figure reports from inputs the binary
// builds once (bench/paper.cpp runs them in the paper's order).
#pragma once

#include <vector>

#include "bench_common.h"
#include "core/client_analysis.h"
#include "core/cloud_analysis.h"
#include "traffic/residence.h"
#include "traffic/service_catalog.h"
#include "web/metrics.h"

namespace nbv6::bench {

/// The inputs the figure and table sections share: the §3 inputs, which
/// the binary builds first and which outlive the Paper, and the §4/§5 web
/// inputs, which the Paper owns.
struct Paper {
  /// Surveys a `sites`-site web universe at all three epochs (seed 42),
  /// keeping only the counts of the two earlier ones.
  Paper(const traffic::ServiceCatalog& catalog,
        const std::vector<engine::ResidenceRun>& residences,
        const cloud::ProviderCatalog& providers, int sites);

  const traffic::ServiceCatalog& catalog;
  /// §3: residences[i] is paper residence i.
  const std::vector<engine::ResidenceRun>& residences;
  const cloud::ProviderCatalog& providers;
  web::Universe universe;
  /// Figure 5's two earlier epochs. They are surveyed before the Jul 2025
  /// survey is built, so no two full surveys are ever resident at once.
  web::ClassificationCounts oct2024_counts;
  web::ClassificationCounts apr2025_counts;
  /// §4 and §5 read the Jul 2025 survey, its span analysis and the FQDN
  /// records it observed.
  core::ServerSurvey survey;
  web::SpanAnalysis span;
  std::vector<cloud::DomainRecord> records;
};

void fig1_daily_fraction_cdf(const Paper& p);
void fig2_mstl(const Paper& p);
void fig3_as_cdf(const Paper& p);
void fig4_as_boxplots(const Paper& p);
void fig5_classification(const Paper& p);
void fig6_topn(const Paper& p);
void fig7_partial_resources(const Paper& p);
void fig8_span_contribution(const Paper& p);
void fig9_categories(const Paper& p);
void fig10_whatif(const Paper& p);
void fig11_cloud_providers(const Paper& p);
void fig12_wilcoxon_heatmap(const Paper& p);
void fig18_resource_heatmap(const Paper& p);
void table1_residences(const Paper& p);
void table2_cloud_services(const Paper& p);
/// Builds its own universe of min(30000, sites) sites, so the binary runs
/// it after the Paper's 100k-site inputs are gone.
void ablations(const traffic::ServiceCatalog& catalog,
               const std::vector<engine::ResidenceRun>& residences,
               const cloud::ProviderCatalog& providers, int sites);

}  // namespace nbv6::bench
