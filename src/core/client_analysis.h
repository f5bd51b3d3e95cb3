// Client-side adoption analysis (§3): from flow-monitor aggregates to the
// paper's tables and series.
#pragma once

#include <string>
#include <vector>

#include "flowmon/monitor.h"
#include "net/asn.h"
#include "stats/descriptive.h"
#include "stats/stl.h"
#include "traffic/service_catalog.h"

namespace nbv6::core {

/// One residence row of Table 1 (one scope's half).
struct ScopeReport {
  double total_gb = 0;
  double v4_gb = 0;
  double v6_gb = 0;
  double overall_byte_fraction = 0;  ///< bytes-weighted IPv6 fraction
  stats::Summary daily_byte_fraction;
  double total_flows_m = 0;
  double v4_flows_m = 0;
  double v6_flows_m = 0;
  double overall_flow_fraction = 0;
  stats::Summary daily_flow_fraction;
};

struct ResidenceReport {
  std::string name;
  ScopeReport external;
  ScopeReport internal;
};

/// Build Table 1's row for one residence from its monitor.
ResidenceReport analyze_residence(const std::string& name,
                                  const flowmon::FlowMonitor& monitor);

/// Per-AS IPv6 usage at one residence (§3.4, Figs. 3-4). Only ASes with at
/// least `min_traffic_share` of the residence's external bytes are kept
/// (paper: 0.01%).
struct AsUsage {
  net::Asn asn = 0;
  std::string as_name;
  std::uint64_t bytes = 0;
  std::uint64_t v6_bytes = 0;
  [[nodiscard]] double v6_fraction() const {
    return bytes == 0 ? 0.0 : static_cast<double>(v6_bytes) / static_cast<double>(bytes);
  }
};

std::vector<AsUsage> as_usage(const flowmon::FlowMonitor& monitor,
                              const net::AsMap& as_map,
                              double min_traffic_share = 1e-4);

/// Per-domain usage via reverse DNS (§3.4's domain-level view; Fig. 17).
struct DomainUsage {
  std::string domain;
  std::uint64_t bytes = 0;
  std::uint64_t v6_bytes = 0;
  [[nodiscard]] double v6_fraction() const {
    return bytes == 0 ? 0.0 : static_cast<double>(v6_bytes) / static_cast<double>(bytes);
  }
};

std::vector<DomainUsage> domain_usage(const flowmon::FlowMonitor& monitor,
                                      const traffic::ServiceCatalog& catalog,
                                      std::uint64_t min_bytes = 0);

/// Cross-residence join: entities (AS or domain) observed at >= k
/// residences, with the per-residence IPv6 fractions (the box-plot data of
/// Figs. 4 and 17).
struct CrossResidenceUsage {
  net::Asn asn = 0;  ///< 0 for domain-keyed joins
  std::string key;   ///< AS name or domain
  std::vector<double> fractions;  ///< one per residence where observed
};

std::vector<CrossResidenceUsage> ases_at_min_residences(
    const std::vector<std::vector<AsUsage>>& per_residence, int min_residences);

std::vector<CrossResidenceUsage> domains_at_min_residences(
    const std::vector<std::vector<DomainUsage>>& per_residence,
    int min_residences, std::uint64_t min_total_bytes);

/// MSTL decomposition of a residence's hourly external IPv6 fraction with
/// daily (24h) and weekly (168h) seasons — Fig. 2's panels.
struct DiurnalDecomposition {
  std::vector<double> observed;
  std::vector<double> trend;
  std::vector<double> daily;
  std::vector<double> weekly;
  std::vector<double> remainder;
};

DiurnalDecomposition diurnal_decomposition(const flowmon::FlowMonitor& monitor,
                                           bool by_bytes);

}  // namespace nbv6::core
