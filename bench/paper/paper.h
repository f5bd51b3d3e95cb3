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

/// The inputs the sections share. Members are built in declaration order;
/// `universe` refers to `providers`, so a Paper stays where it is built.
struct Paper {
  /// Builds every input: the five paper residences over `days` days and a
  /// `sites`-site web universe surveyed at Jul 2025 (seed 42).
  Paper(int sites, int days);
  Paper(const Paper&) = delete;
  Paper& operator=(const Paper&) = delete;

  traffic::ServiceCatalog catalog;
  /// §3: residences[i] is paper residence i.
  std::vector<engine::ResidenceRun> residences;
  cloud::ProviderCatalog providers;
  web::Universe universe;
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
void ablations(const Paper& p);

}  // namespace nbv6::bench
