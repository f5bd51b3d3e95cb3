// Cloud-side adoption analysis (§5): glue from a server survey's observed
// FQDNs to the cloud attribution pipeline.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cloud/analysis.h"
#include "core/server_analysis.h"
#include "web/universe.h"

namespace nbv6::core {

/// One cloud DomainRecord per FQDN the survey observed, in
/// `observed_fqdn_ids` order, skipping names that resolve in neither
/// family. Reads the survey's per-epoch FQDN table by FQDN id: no zone,
/// resolver or PSL lookup, unless the survey has no table, in which case
/// one is built by the same web::Crawler constructor.
std::vector<cloud::DomainRecord> build_domain_records(
    const web::Universe& universe, const ServerSurvey& survey);

/// The paper's merged-entity map for Fig. 12 ("Cloudflare (All)",
/// "Akamai (All)").
std::map<std::string, std::string> paper_org_merge_map();

struct CloudReport {
  std::vector<cloud::ProviderBreakdownRow> providers;   ///< Table 3 / Fig. 11
  std::vector<cloud::ServiceAdoptionRow> services;      ///< Table 2
};

CloudReport analyze_cloud(const web::Universe& universe,
                          const ServerSurvey& survey);

}  // namespace nbv6::core
