// Table 2: IPv6 adoption across cloud services, identified by CNAME suffix,
// with each service's IPv6 enablement policy.
#include "paper.h"

using namespace nbv6;

void bench::table2_cloud_services(const Paper& p) {
  bench::section("Table 2: per-service IPv6 adoption (CNAME identification)");
  auto rows = cloud::service_breakdown(p.records, p.providers);
  std::printf("%-28s %-30s %-22s %7s %7s %8s\n", "Provider", "Service",
              "IPv6 policy", "ready", "total", "% ready");
  for (const auto& r : rows) {
    std::printf("%-28s %-30s %-22s %7d %7d %7.1f%%\n", r.provider_org.c_str(),
                r.service_name.c_str(),
                std::string(to_string(r.policy)).c_str(), r.v6_ready, r.total,
                r.pct_ready());
  }

  std::printf(
      "\nPaper reference: always-on services sit at 100%% (Azure Front "
      "Door); default-on\nCDNs at 48-71%% (tenants opt out); opt-in at "
      "2.7-7.4%%; opt-in-by-code-change\nnear zero (S3 at 0.4%% nine years "
      "after launch).\n");
}
