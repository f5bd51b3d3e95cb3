// Figure 5: classification of the top-100k sites into loading-failure /
// IPv4-only / IPv6-partial / IPv6-full, across the three measurement
// epochs (Oct 2024, Apr 2025, Jul 2025), including the Sankey-diagram
// branch counts and the browser-used-IPv4 split.
#include "paper.h"

using namespace nbv6;

namespace {

void print_epoch(const web::ClassificationCounts& c, web::Epoch e) {
  std::printf("\n-- %s --\n", std::string(to_string(e)).c_str());
  std::printf("  Total sites                 %7d\n", c.total);
  std::printf("  Loading-Failure (NXDOMAIN)  %7d\n", c.nxdomain);
  std::printf("  Loading-Failure (Others)    %7d\n", c.other_failure);
  std::printf("  Connection Success          %7d (100%%)\n",
              c.connection_success);
  std::printf("  Unknown Primary Domain      %7d (%.1f%%)\n",
              c.unknown_primary, c.pct_of_success(c.unknown_primary));
  std::printf("  IPv4-only (A-only domain)   %7d (%.1f%%)\n", c.ipv4_only,
              c.pct_of_success(c.ipv4_only));
  std::printf("  AAAA-enabled Domain         %7d (%.1f%%)\n", c.aaaa_enabled,
              c.pct_of_success(c.aaaa_enabled));
  std::printf("  IPv6-partial                %7d (%.1f%%)\n", c.ipv6_partial,
              c.pct_of_success(c.ipv6_partial));
  std::printf("  IPv6-full                   %7d (%.1f%%)\n", c.ipv6_full,
              c.pct_of_success(c.ipv6_full));
  std::printf("  Browser Used IPv4           %7d (%.1f%%)\n",
              c.full_browser_used_v4, c.pct_of_success(c.full_browser_used_v4));
  std::printf("  Browser Used IPv6 Only      %7d (%.1f%%)\n",
              c.full_browser_used_v6_only,
              c.pct_of_success(c.full_browser_used_v6_only));
}

}  // namespace

void bench::fig5_classification(const Paper& p) {
  bench::section("Figure 5: top-list IPv6 readiness across three epochs");
  print_epoch(p.oct2024_counts, web::Epoch::oct2024);
  print_epoch(p.apr2025_counts, web::Epoch::apr2025);
  print_epoch(p.survey.counts, web::Epoch::jul2025);

  std::printf(
      "\nPaper reference (Jul 2025, %% of connection successes): IPv4-only "
      "57.6%%,\nAAAA-enabled 42.4%%, IPv6-partial 29.8%%, IPv6-full 12.6%%, "
      "browser-used-IPv4 1.5%%\n(of successes; ~11.6%% of full sites). "
      "Adoption drifts up ~0.6%% over the epochs.\n");
}
