// The synthetic web universe: the stand-in for the live Tranco top-100k
// crawl of §4 and §5.
//
// The generator builds, deterministically from a seed, a population of
// top-list websites and shared third-party resource domains whose joint
// structure matches the causal mechanisms the paper measures:
//
//   - Sites occupy Tranco-like ranks; a site's main-domain AAAA probability
//     rises toward the top of the list (Fig. 6's gradient).
//   - Every page embeds first-party subdomain resources and third-party
//     resources drawn Zipf-heavily from a shared pool, so a few domains
//     (ads, trackers, CDNs) accumulate enormous span while most appear on
//     one or two sites (Fig. 8's long tail).
//   - Third-party adoption varies by category — advertising lags hardest —
//     which is what makes three-quarters of AAAA-enabled sites only
//     IPv6-partial (Figs. 5, 9).
//   - Every FQDN is hosted somewhere: a cloud provider + service (CNAME
//     chain to the service suffix) or self-hosted. Service IPv6 policy
//     drives resource-domain AAAA presence, giving §5 its provider and
//     service contrasts, including the Bunnyway/Datacamp and Akamai
//     split-attribution quirks.
//   - A latent adoption propensity per FQDN plus per-epoch thresholds
//     yields slow, consistent growth across the paper's three measurement
//     epochs (Oct 2024, Apr 2025, Jul 2025).
//
// Everything is registered in a dns::ZoneDb per epoch, so the crawler and
// the cloud analyses operate purely through DNS + BGP lookups, exactly like
// the paper's pipeline.
//
// Layout: pages are not objects. A Site names a range of page indices, and
// each page is one row of three flat arrays (4-byte resource refs, internal
// links, external links), each with a uint32_t begin offset per page and an
// end sentinel; Universe::page() returns a row as three spans. A universe
// holds at most kMaxSites sites, which keeps every FQDN id within a ref's
// 29 bits and every offset within 32; the constructor checks the size
// before it allocates. categorize() binary-searches tenant ids sorted by
// eTLD+1.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cloud/providers.h"
#include "dns/zone.h"
#include "stats/rng.h"
#include "web/psl.h"

namespace nbv6::web {

/// Resource types as browsers (and Fig. 18) classify fetches.
enum class ResourceType : std::uint8_t {
  image,
  script,
  stylesheet,
  xmlhttprequest,
  sub_frame,
  font,
  media,
  beacon,
};
constexpr int kResourceTypeCount = 8;
std::string_view to_string(ResourceType t);

/// Third-party domain categories, following the VirusTotal taxonomy the
/// paper applies to heavy hitters (Fig. 9).
enum class DomainCategory : std::uint8_t {
  ads,
  trackers,
  analytics,
  content_delivery,
  information_technology,
  social,
  first_party,  ///< site-owned domains (not third-party at all)
};
constexpr int kDomainCategoryCount = 7;
std::string_view to_string(DomainCategory c);

/// One measurement epoch. The paper's three runs.
enum class Epoch : std::uint8_t { oct2024 = 0, apr2025 = 1, jul2025 = 2 };
constexpr int kEpochCount = 3;
std::string_view to_string(Epoch e);

/// A fully qualified domain name in the universe.
struct Fqdn {
  std::string name;
  std::uint32_t tenant = 0;   ///< owning eTLD+1 (index into tenants())
  int provider = -1;          ///< cloud provider index; -1 = self-hosted
  int service = -1;           ///< provider service index; -1 = generic hosting
  double adopt_u = 1.0;       ///< latent adoption propensity in [0,1)
  double adoption_rate = 0;   ///< epoch-0 threshold; drifts upward per epoch
};

/// An eTLD+1 and the FQDNs under it, ids [first_fqdn, first_fqdn +
/// fqdn_count): every FQDN of a tenant is added right after the tenant.
struct Tenant {
  std::string etld1;
  DomainCategory category = DomainCategory::first_party;
  std::uint32_t first_fqdn = 0;
  std::uint32_t fqdn_count = 0;
};

/// One fetch on a page, packed into 4 bytes: a 29-bit FQDN id and the
/// 3-bit type. Its 32 bits are the crawler's (fqdn, type) dedup key.
struct ResourceRef {
  std::uint32_t fqdn : 29 = 0;
  ResourceType type : 3 = ResourceType::image;
};
static_assert(sizeof(ResourceRef) == 4);
static_assert(kResourceTypeCount <= 8);
/// Largest FQDN id a ResourceRef holds.
constexpr std::uint32_t kMaxFqdnId = (1u << 29) - 1;

/// Largest site_count a Universe accepts. universe.cpp derives from the
/// generator constants that every FQDN id fits a ResourceRef and every
/// page, ref and link offset fits a uint32_t at this size.
constexpr int kMaxSites = 10'000'000;

/// One page: views into the universe's flat arrays.
struct Page {
  std::span<const ResourceRef> resources;
  /// Indices of same-site pages this page links to.
  std::span<const std::uint32_t> internal_links;
  /// FQDNs of off-site link targets (the crawler must refuse these).
  std::span<const std::uint32_t> external_links;
};

/// Why a site fails to load, when it does (§4.2's loading-failure split).
enum class SiteFate : std::uint8_t { ok, nxdomain, other_failure };

struct Site {
  std::uint32_t tenant = 0;
  std::uint32_t main_fqdn = 0;
  int rank = 0;  ///< 0-based Tranco-style rank
  double fail_u = 1.0;  ///< latent failure propensity
  /// Optional redirect: main_fqdn 301s here before content loads.
  std::optional<std::uint32_t> redirect_to;
  /// Pages first_page .. first_page + page_count - 1 of the universe; the
  /// first is the main page.
  std::uint32_t first_page = 0;
  std::uint32_t page_count = 0;
};

/// Variable-length rows stored back to back: row i is
/// items[begin[i], begin[i + 1]), and begin ends with items.size().
template <class T>
struct FlatRows {
  std::vector<T> items;
  std::vector<std::uint32_t> begin{0};

  [[nodiscard]] std::span<const T> row(std::uint32_t i) const {
    return std::span<const T>(items).subspan(begin[i], begin[i + 1] - begin[i]);
  }
  void end_row() { begin.push_back(static_cast<std::uint32_t>(items.size())); }
};

/// The flat arrays behind every page, one row per page in site order.
struct PageRows {
  FlatRows<ResourceRef> resources;
  FlatRows<std::uint32_t> internal_links;
  FlatRows<std::uint32_t> external_links;
};

/// What varies between universes: the top-list size and the generator
/// seed. Every other generator parameter (third-party pool ratio and Zipf
/// exponent, page and resource counts, adoption and failure rates, epoch
/// drift, cloud hosting shares) is a named constant in universe.cpp.
struct UniverseConfig {
  int site_count = 100'000;
  std::uint64_t seed = 0x7eb0'1234;
};

/// Baseline AAAA adoption for a third-party domain of a category when the
/// hosting choice is left to the tenant (generic/self hosting).
double category_base_adoption(DomainCategory c);

class Universe {
 public:
  /// Throws std::invalid_argument, before allocating anything, when
  /// cfg.site_count is negative or above kMaxSites.
  explicit Universe(const UniverseConfig& cfg,
                    const cloud::ProviderCatalog& providers);

  [[nodiscard]] const UniverseConfig& config() const { return cfg_; }
  [[nodiscard]] const std::vector<Site>& sites() const { return sites_; }
  [[nodiscard]] const std::vector<Tenant>& tenants() const { return tenants_; }
  [[nodiscard]] const std::vector<Fqdn>& fqdns() const { return fqdns_; }
  [[nodiscard]] const cloud::ProviderCatalog& providers() const {
    return *providers_;
  }
  [[nodiscard]] const PublicSuffixList& psl() const { return psl_; }

  [[nodiscard]] const PageRows& page_rows() const { return pages_; }
  /// Page `i` of site `s` (0 is the main page).
  [[nodiscard]] Page page(const Site& s, std::uint32_t i) const {
    const std::uint32_t p = s.first_page + i;
    return {pages_.resources.row(p), pages_.internal_links.row(p),
            pages_.external_links.row(p)};
  }

  /// Site fate at an epoch (failure rates drift upward).
  [[nodiscard]] SiteFate fate(const Site& s, Epoch e) const;

  /// Does this FQDN publish an AAAA at this epoch? (A records are
  /// universal for non-failed names.)
  [[nodiscard]] bool has_aaaa(std::uint32_t fqdn, Epoch e) const;

  /// Build the DNS zone for an epoch: A/AAAA/CNAME records for every FQDN
  /// of every non-NXDOMAIN site and all third-party domains, with CNAME
  /// chains into provider service suffixes and addresses drawn from
  /// provider space (honouring the Bunnyway-style A-record quirks).
  [[nodiscard]] dns::ZoneDb build_zone(Epoch e) const;

  /// The VirusTotal-categorizer stand-in: category of an eTLD+1.
  [[nodiscard]] std::optional<DomainCategory> categorize(
      std::string_view etld1) const;

 private:
  void build_third_parties(stats::Rng& rng);
  void build_sites(stats::Rng& rng);
  std::uint32_t add_tenant(std::string etld1, DomainCategory cat);
  std::uint32_t add_fqdn(std::string name, std::uint32_t tenant, int provider,
                         int service, double rate, stats::Rng& rng);
  /// Sample a (provider, service) pair; `prefer_cdn` biases toward
  /// default-on CDN services (top-ranked sites); `service_affinity` is the
  /// chance a tenant of a service-bearing provider uses a catalogued
  /// service rather than generic hosting.
  std::pair<int, int> sample_hosting(stats::Rng& rng, bool prefer_cdn,
                                     double service_affinity = 0.65);

  UniverseConfig cfg_;
  const cloud::ProviderCatalog* providers_;
  PublicSuffixList psl_;
  std::vector<Site> sites_;
  std::vector<Tenant> tenants_;
  std::vector<Fqdn> fqdns_;
  PageRows pages_;
  /// Third-party FQDN ids weighted by Zipf popularity, for page building.
  std::vector<std::uint32_t> third_party_pool_;
  std::vector<double> third_party_weights_;
  /// FQDNs of unpopular tenants, for uniform niche-partner draws.
  std::vector<std::uint32_t> tail_pool_;
  /// Tenant ids sorted by eTLD+1 (every eTLD+1 is distinct).
  std::vector<std::uint32_t> tenants_by_name_;
};

}  // namespace nbv6::web
