#include "core/client_analysis.h"

#include <algorithm>
#include <map>

namespace nbv6::core {
namespace {

constexpr double kGb = 1e9;
constexpr double kMillion = 1e6;

ScopeReport scope_report(const flowmon::FlowMonitor& monitor,
                         flowmon::Scope scope) {
  const auto& totals = monitor.totals(scope);
  ScopeReport r;
  r.total_gb = static_cast<double>(totals.total_bytes()) / kGb;
  r.v4_gb = static_cast<double>(totals.v4.bytes) / kGb;
  r.v6_gb = static_cast<double>(totals.v6.bytes) / kGb;
  r.overall_byte_fraction = std::max(0.0, totals.v6_byte_fraction());
  r.total_flows_m = static_cast<double>(totals.total_flows()) / kMillion;
  r.v4_flows_m = static_cast<double>(totals.v4.flows) / kMillion;
  r.v6_flows_m = static_cast<double>(totals.v6.flows) / kMillion;
  r.overall_flow_fraction = std::max(0.0, totals.v6_flow_fraction());

  auto daily_bytes = monitor.daily_v6_fractions(scope, /*by_bytes=*/true);
  auto daily_flows = monitor.daily_v6_fractions(scope, /*by_bytes=*/false);
  r.daily_byte_fraction = stats::summarize(daily_bytes);
  r.daily_flow_fraction = stats::summarize(daily_flows);
  return r;
}

}  // namespace

ResidenceReport analyze_residence(const std::string& name,
                                  const flowmon::FlowMonitor& monitor) {
  ResidenceReport r;
  r.name = name;
  r.external = scope_report(monitor, flowmon::Scope::external);
  r.internal = scope_report(monitor, flowmon::Scope::internal);
  return r;
}

std::vector<AsUsage> as_usage(const flowmon::FlowMonitor& monitor,
                              const net::AsMap& as_map,
                              double min_traffic_share) {
  std::map<net::Asn, AsUsage> by_asn;
  std::uint64_t total = 0;
  for (const auto& dest : monitor.destination_tallies()) {
    total += dest.tally.bytes;
    const auto asn = as_map.lookup(dest.addr);
    if (!asn) continue;
    auto& u = by_asn[*asn];
    u.asn = *asn;
    u.bytes += dest.tally.bytes;
    if (dest.addr.is_v6()) u.v6_bytes += dest.tally.bytes;
  }

  const auto threshold =
      static_cast<std::uint64_t>(min_traffic_share * static_cast<double>(total));
  std::vector<AsUsage> out;
  for (auto& [asn, u] : by_asn) {
    if (u.bytes < threshold) continue;
    u.as_name = as_map.name(asn);
    out.push_back(std::move(u));
  }
  std::sort(out.begin(), out.end(),
            [](const AsUsage& a, const AsUsage& b) { return a.bytes > b.bytes; });
  return out;
}

std::vector<DomainUsage> domain_usage(const flowmon::FlowMonitor& monitor,
                                      const traffic::ServiceCatalog& catalog,
                                      std::uint64_t min_bytes) {
  std::map<std::string, DomainUsage> by_domain;
  for (const auto& dest : monitor.destination_tallies()) {
    std::string domain = catalog.reverse_dns(dest.addr);
    if (domain.empty()) continue;  // no PTR — unmapped space
    auto& u = by_domain[domain];
    u.domain = domain;
    u.bytes += dest.tally.bytes;
    if (dest.addr.is_v6()) u.v6_bytes += dest.tally.bytes;
  }
  std::vector<DomainUsage> out;
  for (auto& [_, u] : by_domain)
    if (u.bytes >= min_bytes) out.push_back(std::move(u));
  std::sort(out.begin(), out.end(), [](const DomainUsage& a, const DomainUsage& b) {
    return a.bytes > b.bytes;
  });
  return out;
}

std::vector<CrossResidenceUsage> ases_at_min_residences(
    const std::vector<std::vector<AsUsage>>& per_residence,
    int min_residences) {
  std::map<net::Asn, CrossResidenceUsage> joined;
  for (const auto& residence : per_residence) {
    for (const auto& u : residence) {
      auto& j = joined[u.asn];
      j.asn = u.asn;
      j.key = u.as_name;
      j.fractions.push_back(u.v6_fraction());
    }
  }
  std::vector<CrossResidenceUsage> out;
  for (auto& [_, j] : joined)
    if (static_cast<int>(j.fractions.size()) >= min_residences)
      out.push_back(std::move(j));
  return out;
}

std::vector<CrossResidenceUsage> domains_at_min_residences(
    const std::vector<std::vector<DomainUsage>>& per_residence,
    int min_residences, std::uint64_t min_total_bytes) {
  struct Acc {
    CrossResidenceUsage usage;
    std::uint64_t total_bytes = 0;
  };
  std::map<std::string, Acc> joined;
  for (const auto& residence : per_residence) {
    for (const auto& u : residence) {
      auto& j = joined[u.domain];
      j.usage.key = u.domain;
      j.usage.fractions.push_back(u.v6_fraction());
      j.total_bytes += u.bytes;
    }
  }
  std::vector<CrossResidenceUsage> out;
  for (auto& [_, j] : joined) {
    if (static_cast<int>(j.usage.fractions.size()) < min_residences) continue;
    if (j.total_bytes < min_total_bytes) continue;
    out.push_back(std::move(j.usage));
  }
  return out;
}

DiurnalDecomposition diurnal_decomposition(const flowmon::FlowMonitor& monitor,
                                           bool by_bytes) {
  DiurnalDecomposition d;
  d.observed = monitor.hourly_v6_fraction_series(by_bytes);

  constexpr int kPeriods[] = {24, 168};  // daily and weekly, hourly samples
  auto res = stats::mstl_decompose(d.observed, kPeriods);
  d.trend = std::move(res.trend);
  if (!res.seasonals.empty()) d.daily = std::move(res.seasonals[0]);
  if (res.seasonals.size() > 1) d.weekly = std::move(res.seasonals[1]);
  d.remainder = std::move(res.remainder);
  return d;
}

}  // namespace nbv6::core
