// The paper's results in one run: every figure and table of §3-§5, then
// the ablations, printed in that order against the synthetic substrate, so
// the *shape* of every result can be compared with the published numbers.
//
//   paper [--sites=100000] [--days=274]
//
// The shared inputs (bench/paper/paper.h) are built once: the five paper
// residences, the web universe, its Jul 2025 survey, the span analysis and
// the FQDN records. Small values run in about a second (CI runs 2000 sites
// and 14 days); the defaults are the paper's scale. --sites above
// web::kMaxSites exits 2 before any input is built.
#include "engine/run_spec.h"
#include "paper/paper.h"

namespace nbv6::bench {
namespace {

std::vector<engine::ResidenceRun> simulate_residences(
    const traffic::ServiceCatalog& catalog, int days) {
  auto configs = traffic::paper_residences();
  for (auto& cfg : configs) cfg.days = days;
  const auto pool = lane_pool(*engine::resolve_lanes(0));
  return engine::simulate_fleet(catalog, configs, pool.get()).residences;
}

web::UniverseConfig universe_config(int sites) {
  web::UniverseConfig cfg;
  cfg.site_count = sites;
  return cfg;
}

web::ClassificationCounts survey_counts(const web::Universe& universe,
                                        web::Epoch epoch) {
  return core::run_server_survey(universe, epoch, 42).counts;
}

}  // namespace

Paper::Paper(const traffic::ServiceCatalog& catalog,
             const std::vector<engine::ResidenceRun>& residences,
             const cloud::ProviderCatalog& providers, int sites)
    : catalog(catalog),
      residences(residences),
      providers(providers),
      universe(universe_config(sites), providers),
      oct2024_counts(survey_counts(universe, web::Epoch::oct2024)),
      apr2025_counts(survey_counts(universe, web::Epoch::apr2025)),
      survey(core::run_server_survey(universe, web::Epoch::jul2025, 42)),
      span(universe, survey.crawls, survey.classifications),
      records(core::build_domain_records(universe, survey)) {}

}  // namespace nbv6::bench

int main(int argc, char** argv) {
  using namespace nbv6::bench;
  int sites = 100000;
  int days = 274;
  Cli cli("paper", "every figure, table and ablation of the paper");
  cli.flag_int("sites", &sites, "web universe size (the paper's top 100k)");
  cli.flag_int("days", &days, "residence days (Nov 2024 - Aug 2025)");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  if (!positive_flag("sites", sites, nbv6::web::kMaxSites) ||
      !positive_flag("days", days))
    return 2;

  const auto catalog = nbv6::traffic::build_paper_catalog();
  const auto residences = simulate_residences(catalog, days);
  const nbv6::cloud::ProviderCatalog providers;
  {
    const Paper p(catalog, residences, providers, sites);
    for (auto section :
         {fig1_daily_fraction_cdf, fig2_mstl, fig3_as_cdf, fig4_as_boxplots,
          fig5_classification, fig6_topn, fig7_partial_resources,
          fig8_span_contribution, fig9_categories, fig10_whatif,
          fig11_cloud_providers, fig12_wilcoxon_heatmap,
          fig18_resource_heatmap, table1_residences, table2_cloud_services})
      section(p);
  }
  // The §4/§5 inputs are freed first: the ablations build a universe and a
  // survey of their own.
  ablations(catalog, residences, providers, sites);
  return 0;
}
