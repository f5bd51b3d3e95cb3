// The catalog of Internet services residential traffic talks to.
//
// §3.4 of the paper attributes flows to services at the AS level (via BGP)
// and the domain level (via reverse DNS), groups the 35 ASes seen at 3+
// residences into five functional categories, and finds leaders (Fastly,
// Wikimedia, Facebook, Google ≥90% IPv6) and laggards (Twitch, Zoom,
// GitHub, USC at 0%). The catalog encodes those services — real ASNs, real
// category assignments, IPv6 readiness levels matching Figure 4's ordering —
// and owns the synthetic address plan (one v4 and, when ready, one v6
// prefix per service) plus the BGP announcements and reverse-DNS entries
// the analysis joins against.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/asn.h"
#include "net/ip.h"
#include "net/prefix.h"

namespace nbv6::traffic {

/// The five functional groups of Figure 4.
enum class ServiceCategory : std::uint8_t {
  hosting_cloud,
  software,
  isp,
  web_social,
  other,
};

std::string_view to_string(ServiceCategory c);

/// Shapes the flow-count and byte-volume mix a service generates.
enum class TrafficProfile : std::uint8_t {
  web,        ///< many small flows (browsing)
  streaming,  ///< few flows, large steady volume (video)
  download,   ///< very few flows, extreme volume (game downloads)
  call,       ///< long medium-rate flows (video conferencing)
  gaming,     ///< many tiny flows, low volume
  background, ///< unattended device chatter
};

struct Service {
  std::string name;        ///< AS name as in Fig. 4, e.g. "NETFLIX-ASN"
  std::string rdns_domain; ///< eTLD+1 reverse DNS maps to, e.g. "nflxvideo.net"
  net::Asn asn = 0;
  ServiceCategory category = ServiceCategory::other;
  TrafficProfile profile = TrafficProfile::web;
  /// Fraction of this service's endpoints that are dual-stack, in [0, 1].
  /// 0 = IPv4-only service (Zoom, Twitch, GitHub, USC); 1 = fully dual-stack.
  double v6_readiness = 0.0;
  /// Relative base popularity across all residences.
  double popularity = 1.0;

  net::Prefix4 prefix4;
  std::optional<net::Prefix6> prefix6;  ///< absent when v6_readiness == 0
};

/// An addressable endpoint of a service, as Happy Eyeballs sees it.
struct Endpoint {
  net::IPv4Addr v4;
  std::optional<net::IPv6Addr> v6;  ///< present iff this endpoint is dual-stack
};

class ServiceCatalog {
 public:
  /// Number of distinct endpoints modelled per service.
  static constexpr int kEndpointsPerService = 24;

  /// Adds a service; allocates its prefixes, announces them in the AS map,
  /// and registers reverse DNS. Returns its index.
  size_t add(Service service);

  [[nodiscard]] const std::vector<Service>& services() const {
    return services_;
  }
  [[nodiscard]] const Service& at(size_t i) const { return services_[i]; }
  [[nodiscard]] size_t size() const { return services_.size(); }

  /// Deterministic endpoint j of service i; endpoints with
  /// j < v6_readiness * kEndpointsPerService are dual-stack.
  [[nodiscard]] Endpoint endpoint(size_t service, int j) const;

  /// The BGP view over all catalog prefixes (the §3.4 attribution path).
  [[nodiscard]] const net::AsMap& as_map() const { return as_map_; }

  /// Reverse DNS for a destination address: the eTLD+1 its PTR-style name
  /// would reveal, or empty when unmapped. Cloud-hosted services may map to
  /// the cloud's canonical domain rather than the service's own (§3.4's
  /// "subdomain.cdn.net" limitation).
  [[nodiscard]] std::string reverse_dns(const net::IpAddr& addr) const;

  /// Index lookup by AS number (first match).
  [[nodiscard]] std::optional<size_t> find_by_asn(net::Asn asn) const;

  /// FNV-1a digest over every field of every service, in index order.
  /// Two catalogs digest equal iff their service lists are bit-identical,
  /// which is the identity the scenario chain's cache keys (the sampled
  /// population and each residence's simulation) fold.
  [[nodiscard]] std::uint64_t content_digest() const;

 private:
  std::vector<Service> services_;
  net::AsMap as_map_;
};

/// The calibrated catalog: the 35+ ASes of Figures 4 and 17 with IPv6
/// readiness levels matching the paper's observed byte fractions.
ServiceCatalog build_paper_catalog();

}  // namespace nbv6::traffic
