// Figure 11 / Table 3: IPv6-readiness breakdown (IPv4-only / IPv6-full /
// IPv6-only) of the top cloud providers by number of hosted domains, from
// the FQDNs observed during the crawl, attributed via BGP + AS-to-Org.
#include "paper.h"

using namespace nbv6;

void bench::fig11_cloud_providers(const Paper& p) {
  bench::section("Figure 11 / Table 3: per-provider IPv6 readiness");
  std::printf("observed FQDN records: %zu\n", p.records.size());

  auto rows = cloud::provider_breakdown(p.records, p.providers);
  std::printf("%-44s %8s %9s %9s %9s\n", "Organization", "domains",
              "IPv4-only", "IPv6-full", "IPv6-only");
  for (const auto& r : rows) {
    std::printf("%-44s %8d %8.1f%% %8.1f%% %8.1f%%\n", r.org.c_str(), r.total,
                r.pct(r.v4_only), r.pct(r.v6_full), r.pct(r.v6_only));
  }

  std::printf(
      "\nPaper reference (IPv6-full): Cloudflare 85.2%%, Google 67.7%%, "
      "Akamai Intl 50.4%%,\nDatacamp 39.6%%, Microsoft 39.7%%, Fastly "
      "34.3%%, Amazon 24.6%%, OVH 13.0%%,\nDigitalOcean 9.2%%, Akamai Tech "
      "3.4%%, Incapsula 3.5%%; Bunnyway is 99.5%% IPv6-only\n(its A records "
      "live in Datacamp's address space).\n");
}
