#include "core/cloud_analysis.h"

#include <cstdint>
#include <memory>

namespace nbv6::core {

std::vector<cloud::DomainRecord> build_domain_records(
    const web::Universe& universe, const ServerSurvey& survey) {
  std::shared_ptr<const web::FqdnTable> table = survey.fqdn_table;
  if (!table) {
    const dns::ZoneDb zone = universe.build_zone(survey.epoch);
    table = web::Crawler(universe, zone, survey.epoch).table();
  }
  const auto& fqdns = universe.fqdns();
  const auto ids = observed_fqdn_ids(universe, survey);
  std::vector<cloud::DomainRecord> out;
  out.reserve(ids.size());
  for (const std::uint32_t id : ids) {
    const web::FqdnFacts f = table->facts[id];
    if (!f.reachable()) continue;
    const std::string& name = fqdns[id].name;
    cloud::DomainRecord r;
    r.fqdn = name;
    r.etld1 = f.site != 0 ? table->site_names[f.site] : name;
    if (f.has_a) r.a_addr = table->first_a[id];
    if (f.has_aaaa) r.aaaa_addr = table->first_aaaa[id];
    const std::uint32_t terminal = table->terminal[id];
    r.cname_terminal = terminal != 0 ? table->terminal_names[terminal] : name;
    out.push_back(std::move(r));
  }
  return out;
}

std::map<std::string, std::string> paper_org_merge_map() {
  return {
      {"Cloudflare, Inc.", "Cloudflare (All)"},
      {"Cloudflare London, LLC", "Cloudflare (All)"},
      {"Akamai International B.V.", "Akamai (All)"},
      {"Akamai Technologies, Inc.", "Akamai (All)"},
  };
}

CloudReport analyze_cloud(const web::Universe& universe,
                          const ServerSurvey& survey) {
  auto records = build_domain_records(universe, survey);
  CloudReport report;
  report.providers =
      cloud::provider_breakdown(records, universe.providers());
  report.services = cloud::service_breakdown(records, universe.providers());
  return report;
}

}  // namespace nbv6::core
