// Figure 7: CDFs of the count and the fraction of IPv4-only resources used
// by IPv6-partial websites.
#include "paper.h"

using namespace nbv6;

void bench::fig7_partial_resources(const Paper& p) {
  bench::section("Figure 7: IPv4-only resources on IPv6-partial sites");
  std::vector<double> counts, fracs;
  for (const auto& site : p.span.partial_sites()) {
    counts.push_back(site.v4only_resources);
    fracs.push_back(static_cast<double>(site.v4only_resources) /
                    static_cast<double>(site.total_resources));
  }

  bench::print_cdf(counts, "number of IPv4-only resources per partial site", 10);
  bench::print_cdf(fracs, "fraction of IPv4-only resources per partial site", 10);
  std::printf("\nquartiles: count p25=%.0f p50=%.0f p75=%.0f | fraction "
              "p25=%.2f p50=%.2f p75=%.2f\n",
              stats::quantile(counts, .25), stats::quantile(counts, .5),
              stats::quantile(counts, .75), stats::quantile(fracs, .25),
              stats::quantile(fracs, .5), stats::quantile(fracs, .75));
  std::printf(
      "\nPaper reference: count p25=3 p50=7 p75=21; fraction p25=0.09 "
      "p50=0.21 p75=0.41.\n75%% of partial sites need three or more "
      "IPv4-only resources fixed.\n");
  std::printf("first-party-only partial sites (easily fixable): %d of %zu "
              "(paper: 565)\n",
              p.span.first_party_only_count(), p.span.partial_sites().size());
}
