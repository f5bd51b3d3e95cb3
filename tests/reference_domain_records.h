// collect_domain_records: the resolver + PSL path that built cloud
// DomainRecords by name before core::build_domain_records read the survey's
// per-epoch FQDN table, kept as the reference cloud_test checks that table
// against: every name is resolved afresh for both families and mapped
// through `etld1_of`, and unresolvable names are dropped.
// observed_fqdn_names gives it the survey's names to resolve.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cloud/analysis.h"
#include "core/server_analysis.h"
#include "dns/resolver.h"
#include "web/universe.h"

namespace nbv6::testutil {

/// The names of core::observed_fqdn_ids, in the same order.
inline std::vector<std::string> observed_fqdn_names(
    const web::Universe& universe, const core::ServerSurvey& survey) {
  const auto ids = core::observed_fqdn_ids(universe, survey);
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (const std::uint32_t id : ids) out.push_back(universe.fqdns()[id].name);
  return out;
}

inline std::vector<cloud::DomainRecord> collect_domain_records(
    const dns::Resolver& resolver, std::span<const std::string> names,
    const std::function<std::string(std::string_view)>& etld1_of) {
  std::vector<cloud::DomainRecord> out;
  out.reserve(names.size());
  for (const auto& name : names) {
    auto dual = resolver.resolve_dual(name);
    if (!dual.reachable()) continue;
    cloud::DomainRecord r;
    r.fqdn = dns::canonicalize(name);
    r.etld1 = etld1_of(r.fqdn);
    if (dual.has_v4()) r.a_addr = dual.v4.addresses.front();
    if (dual.has_v6()) r.aaaa_addr = dual.v6.addresses.front();
    r.cname_terminal =
        dual.has_v4() ? dual.v4.terminal() : dual.v6.terminal();
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace nbv6::testutil
