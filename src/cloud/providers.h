// Cloud and CDN provider catalog: organizations, their ASes and prefixes,
// and their tenant-facing services.
//
// Encodes the entities of §5: the top-15 organizations of Table 3 / Fig. 11
// (with their relative tenant counts), the 20 CNAME-identifiable services
// of Table 2 (with each service's IPv6 enablement policy and measured
// adoption), and the two attribution quirks the paper highlights —
// Bunnyway serving AAAA from its own AS while the matching A records sit in
// Datacamp's, and Akamai splitting v6/v4 across two corporate entities.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/asn.h"
#include "net/ip.h"
#include "net/prefix.h"

namespace nbv6::cloud {

/// How a service exposes IPv6 to tenants — §5.3's policy spectrum, which
/// the paper finds is the strongest predictor of tenant adoption.
enum class V6Policy : std::uint8_t {
  always_on,       ///< cannot be disabled (Azure Front Door)
  default_on,      ///< on unless the tenant opts out (Cloudflare, CloudFront)
  opt_in,          ///< a control-panel toggle (many compute products)
  opt_in_code,     ///< requires tenant code/URL changes (S3 dual-stack URLs)
  unsupported,     ///< no IPv6 offering
};

std::string_view to_string(V6Policy p);

/// A tenant-facing product identified by CNAME suffix (Table 2).
struct CloudService {
  std::string name;          ///< "Amazon CloudFront CDN"
  std::string cname_suffix;  ///< "cloudfront.net"
  V6Policy policy = V6Policy::opt_in;
  /// Fraction of tenant domains on this service that are IPv6-ready —
  /// Table 2's measured adoption, used as the generative rate.
  double v6_adoption = 0.0;
  /// Relative share of the provider's tenant domains on this service.
  double weight = 1.0;
};

struct Provider {
  std::string org_name;  ///< CAIDA AS-to-Org style organization name
  std::vector<net::Asn> asns;
  /// Relative share of all hosted domains (Table 3's domain counts).
  double domain_share = 0.0;
  /// Baseline tenant IPv6-full fraction for domains NOT on a listed
  /// service (generic compute/hosting on this org).
  double generic_v6_rate = 0.1;
  std::vector<CloudService> services;
  /// Attribution quirk: AAAA records for this org's tenants resolve into a
  /// different org's address space (empty = none). Bunnyway's A records
  /// live in Datacamp space; we model the inverse direction: AAAA in
  /// Bunnyway's AS, A in Datacamp's.
  std::string a_records_hosted_by;
};

/// The catalog plus the address plan and BGP announcements for every
/// provider AS.
class ProviderCatalog {
 public:
  ProviderCatalog();

  [[nodiscard]] const std::vector<Provider>& providers() const {
    return providers_;
  }
  [[nodiscard]] const Provider& at(size_t i) const { return providers_[i]; }
  [[nodiscard]] size_t size() const { return providers_.size(); }

  [[nodiscard]] std::optional<size_t> find(std::string_view org_name) const;

  /// The BGP table announcing every provider prefix.
  [[nodiscard]] const net::AsMap& as_map() const { return as_map_; }

  /// Allocate the i-th v4 / v6 address inside a provider's space. The
  /// address plan gives each AS its own /12 (v4) and /44 (v6); a
  /// provider's addresses come from its first AS's slot. v4 host indices
  /// wrap within the /12, v6 ones fill the low 32 bits of the /44.
  [[nodiscard]] net::IPv4Addr v4_address(size_t provider, std::uint32_t i) const;
  [[nodiscard]] net::IPv6Addr v6_address(size_t provider, std::uint32_t i) const;

  /// Provider index owning an address (via BGP + org join).
  [[nodiscard]] std::optional<size_t> provider_of(const net::IpAddr& a) const;

  /// Index of the provider whose AS hosts A records for `provider`'s
  /// tenants (the Bunnyway→Datacamp quirk); nullopt when no quirk.
  [[nodiscard]] std::optional<size_t> a_record_host(size_t provider) const;

 private:
  std::vector<Provider> providers_;
  net::AsMap as_map_;
  // Per provider: its first AS's v4 /12 base and v6 /44 high half.
  std::vector<std::uint32_t> slot_v4_;
  std::vector<std::uint64_t> slot_hi_;
  std::unordered_map<net::Asn, size_t> provider_by_asn_;
};

}  // namespace nbv6::cloud
