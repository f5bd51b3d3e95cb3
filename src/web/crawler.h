// The browser-like crawler of §4.1.
//
// For one site, the crawler mirrors OpenWPM's procedure against the
// synthetic universe: resolve the main domain (both families), follow its
// redirect, load the main page's resources, then click up to five randomly
// chosen links constrained to the same eTLD+1 (off-site links are refused
// via the PSL same-site test), recording for every fetched resource its
// FQDN, resource type, party, DNS outcome per family, and which family the
// Happy Eyeballs race actually used.
//
// DNS and the PSL are consulted once per FQDN, not once per fetch: the
// constructor resolves every FQDN of the universe against the epoch's zone
// and interns each one's registrable domain, so a crawl reads one dense
// per-FQDN table and decides same-site by comparing two integer ids.
#pragma once

#include <cstdint>
#include <vector>

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
  /// Resolves every FQDN of `universe` against `zone` and classifies it
  /// with `universe.psl()`, once. The crawler keeps only the resulting
  /// table, so `zone` need only outlive the constructor; `universe` must
  /// outlive the crawler.
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
  /// What the crawl needs to know about one FQDN at this epoch, packed
  /// into 4 bytes. `site` is the FQDN's registrable domain interned to an
  /// id, 0 when it has none (the name is itself a public suffix); two
  /// names are same-site exactly when their nonzero ids are equal.
  struct FqdnFacts {
    std::uint32_t has_a : 1;
    std::uint32_t has_aaaa : 1;
    std::uint32_t site : 30;

    [[nodiscard]] bool reachable() const { return has_a || has_aaaa; }
  };
  static_assert(sizeof(FqdnFacts) == 4);

  SiteCrawl crawl_impl(std::uint32_t site_index, stats::Rng& rng,
                       int link_clicks) const;
  /// `seen` holds the (fqdn, type) keys already observed on this site.
  void load_page(const Page& page, std::uint32_t main_site,
                 std::vector<std::uint64_t>& seen, SiteCrawl& out,
                 stats::Rng& rng) const;

  const Universe* universe_;
  Epoch epoch_;
  /// Indexed by FQDN id.
  std::vector<FqdnFacts> facts_;
};

}  // namespace nbv6::web
