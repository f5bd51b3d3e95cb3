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
// and interns each one's registrable domain into an FqdnTable, so a crawl
// reads one dense per-FQDN array and decides same-site by comparing two
// integer ids. The build allocates nothing per name: one resolver walk
// (dns::Resolver::walk, views into the zone) answers both families and the
// CNAME terminal, the PSL answers a view into the name, and a name whose
// registrable domain is its tenant's eTLD+1 reuses the tenant's site id.
// The table is shared, not private: a survey keeps it, and the §5 cloud
// attribution reads addresses, CNAME terminals and eTLD+1 from it by FQDN
// id. Pages are read as Universe::page views into the universe's flat
// arrays; a 4-byte ResourceRef's bits are the crawl's (FQDN, type) dedup
// key.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dns/zone.h"
#include "net/ip.h"
#include "stats/rng.h"
#include "web/universe.h"

namespace nbv6::web {

/// What the crawl needs to know about one FQDN at an epoch, packed into 4
/// bytes. `site` is the FQDN's registrable domain interned to an id, 0 when
/// it has none (the name is itself a public suffix); two names are
/// same-site exactly when their nonzero ids are equal.
struct FqdnFacts {
  std::uint32_t has_a : 1;
  std::uint32_t has_aaaa : 1;
  std::uint32_t site : 30;

  [[nodiscard]] bool reachable() const { return has_a || has_aaaa; }
};
static_assert(sizeof(FqdnFacts) == 4);

/// Every FQDN of a universe resolved against one epoch's zone and
/// classified by the PSL, indexed by FQDN id. `facts` is the crawl's hot
/// array; the other columns are what the cloud attribution reads.
struct FqdnTable {
  std::vector<FqdnFacts> facts;
  /// First A answer; valid iff `facts[id].has_a`.
  std::vector<net::IPv4Addr> first_a;
  /// First AAAA answer; valid iff `facts[id].has_aaaa`.
  std::vector<net::IPv6Addr> first_aaaa;
  /// CNAME terminal id: 0 = chain-free (the terminal is the name itself),
  /// else an index into `terminal_names`.
  std::vector<std::uint32_t> terminal;
  /// Terminal names by terminal id; entry 0 is unused.
  std::vector<std::string> terminal_names;
  /// Registrable domains by site id; entry 0 is unused.
  std::vector<std::string> site_names;
};

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
  /// FQDN id (into Universe::fqdns()) of the final (post-redirect) main
  /// host; set when the main page loads.
  std::uint32_t main_fqdn = 0;
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
  /// with `universe.psl()`, once, into the FqdnTable that `table()` shares.
  /// Nothing else is read from `zone`, so it need only outlive the
  /// constructor; `universe` must outlive the crawler.
  Crawler(const Universe& universe, const dns::ZoneDb& zone, Epoch epoch);

  /// The per-epoch FQDN table; it outlives the crawler for whoever holds it.
  [[nodiscard]] const std::shared_ptr<const FqdnTable>& table() const {
    return table_;
  }

  /// The RNG that drives site `site_index` in a crawl seeded with `seed`
  /// (`crawl_all` and the link-click ablation draw the same streams).
  [[nodiscard]] static stats::Rng site_rng(std::uint64_t seed,
                                           std::uint32_t site_index);

  /// Crawl one site. `rng` drives link selection and Happy Eyeballs.
  [[nodiscard]] SiteCrawl crawl(std::uint32_t site_index,
                                stats::Rng& rng) const;

  /// Crawl every site in the universe, site i with `site_rng(seed, i)`.
  [[nodiscard]] std::vector<SiteCrawl> crawl_all(std::uint64_t seed) const;

  /// Crawl without clicking links (the ablation of §4.2: main page only
  /// raises IPv6-full from 12.5% to 14.1%).
  [[nodiscard]] SiteCrawl crawl_main_page_only(std::uint32_t site_index,
                                               stats::Rng& rng) const;

 private:
  SiteCrawl crawl_impl(std::uint32_t site_index, stats::Rng& rng,
                       int link_clicks) const;
  /// `seen` holds the (fqdn, type) keys already observed on this site.
  void load_page(const Page& page, std::uint32_t main_site,
                 std::vector<std::uint32_t>& seen, SiteCrawl& out,
                 stats::Rng& rng) const;

  const Universe* universe_;
  Epoch epoch_;
  std::shared_ptr<const FqdnTable> table_;
  /// `table_->facts`, indexed by FQDN id.
  std::span<const FqdnFacts> facts_;
};

}  // namespace nbv6::web
