// The browser-like crawler of §4.1.
//
// For one site, the crawler mirrors OpenWPM's procedure against the
// synthetic universe: resolve the main domain (both families), follow its
// redirect, load the main page's resources, then click up to five randomly
// chosen links constrained to the same eTLD+1 (off-site links are refused
// via the PSL same-site test), recording for every fetched resource its
// FQDN, resource type, party, DNS outcome per family, and which family the
// Happy Eyeballs race actually used.
#pragma once

#include <cstdint>
#include <vector>

#include "dns/resolver.h"
#include "dns/zone.h"
#include "stats/rng.h"
#include "web/universe.h"

namespace nbv6::web {

struct ResourceObservation {
  std::uint32_t fqdn = 0;
  ResourceType type = ResourceType::image;
  bool first_party = false;
  bool has_a = false;
  bool has_aaaa = false;
  /// Family the fetch used (meaningful when the fetch succeeded).
  net::Family used = net::Family::v4;
  /// DNS failed entirely for this resource (excluded from readiness math,
  /// as the paper excludes failure-orthogonal resources).
  bool failed = false;
};

struct SiteCrawl {
  std::uint32_t site_index = 0;
  SiteFate fate = SiteFate::ok;
  /// Host has no registrable domain (the "Unknown Primary Domain" bucket).
  bool unknown_primary = false;
  bool main_has_a = false;
  bool main_has_aaaa = false;
  /// Family used to fetch the main page.
  net::Family main_used = net::Family::v4;
  /// Name of the final (post-redirect) main host.
  std::string main_host;
  /// Distinct (FQDN, type) observations across all loaded pages.
  std::vector<ResourceObservation> resources;
  /// Off-site links refused by the same-site rule (sanity counter).
  int external_links_refused = 0;
  /// Pages actually loaded (main + clicked links).
  int pages_loaded = 0;
};

class Crawler {
 public:
  Crawler(const Universe& universe, const dns::ZoneDb& zone, Epoch epoch);

  /// Crawl one site. `rng` drives link selection and Happy Eyeballs.
  [[nodiscard]] SiteCrawl crawl(std::uint32_t site_index,
                                stats::Rng& rng) const;

  /// Crawl every site in the universe with a per-site deterministic RNG.
  [[nodiscard]] std::vector<SiteCrawl> crawl_all(std::uint64_t seed) const;

  /// Crawl without clicking links (the ablation of §4.2: main page only
  /// raises IPv6-full from 12.5% to 14.1%).
  [[nodiscard]] SiteCrawl crawl_main_page_only(std::uint32_t site_index,
                                               stats::Rng& rng) const;

 private:
  SiteCrawl crawl_impl(std::uint32_t site_index, stats::Rng& rng,
                       int link_clicks) const;
  void load_page(const Page& page, SiteCrawl& out, stats::Rng& rng) const;

  const Universe* universe_;
  const dns::ZoneDb* zone_;
  dns::Resolver resolver_;
  Epoch epoch_;
};

}  // namespace nbv6::web
