#include "web/crawler.h"

#include <algorithm>
#include <bit>
#include <string>
#include <string_view>
#include <unordered_map>

#include "dns/resolver.h"

namespace nbv6::web {

namespace {

/// Same-site links to click beyond the main page (paper: 5).
constexpr int kLinkClicks = 5;
/// Per dual-stack fetch, the probability IPv4 wins the Happy Eyeballs race
/// anyway (the paper's "about 1 in 10 *sites*" via ~30 fetches).
constexpr double kHeV4WinProb = 0.004;

/// The Happy Eyeballs outcome for a fetch of a name with these records.
net::Family race(bool has_a, bool has_aaaa, stats::Rng& rng) {
  if (has_a && has_aaaa)
    return rng.chance(kHeV4WinProb) ? net::Family::v4 : net::Family::v6;
  return has_aaaa ? net::Family::v6 : net::Family::v4;
}

/// Resolves every FQDN of `universe` against `zone` and interns its
/// registrable domain and CNAME terminal, once. One resolver walk per name
/// answers both families; the PSL runs on every name and answers a view
/// into it. Site ids are interned through the name's tenant: when the
/// registrable domain is the tenant's eTLD+1 (nearly always), the tenant's
/// id is reused without a probe. Only a tenant's first such name and the
/// names whose registrable domain is something else (under a wildcard rule
/// like *.ck) probe the by-name map, whose keys are views into the
/// universe's names, so it allocates only its nodes. Ids come out in order
/// of first appearance either way.
std::shared_ptr<const FqdnTable> build_table(const Universe& universe,
                                             const dns::ZoneDb& zone) {
  const auto& fqdns = universe.fqdns();
  const auto& tenants = universe.tenants();
  // Distinct registrable domains never outnumber FQDNs, whose ids fit a
  // ResourceRef, so every interned id fits the 30-bit field.
  static_assert(kMaxFqdnId < (1u << 30) - 1);

  auto t = std::make_shared<FqdnTable>();
  t->facts.reserve(fqdns.size());
  t->first_a.resize(fqdns.size());
  t->first_aaaa.resize(fqdns.size());
  t->terminal.resize(fqdns.size());
  t->terminal_names.emplace_back();
  t->site_names.emplace_back();

  std::unordered_map<std::string_view, std::uint32_t> site_ids;
  site_ids.reserve(tenants.size());
  auto intern_site = [&](std::string_view reg) {
    const auto [it, fresh] = site_ids.try_emplace(
        reg, static_cast<std::uint32_t>(t->site_names.size()));
    if (fresh) t->site_names.emplace_back(reg);
    return it->second;
  };
  std::vector<std::uint32_t> tenant_site(tenants.size(), 0);

  const dns::Resolver resolver(zone);
  for (std::uint32_t id = 0; id < fqdns.size(); ++id) {
    const Fqdn& f = fqdns[id];
    const dns::Resolver::Walk w = resolver.walk(f.name);
    std::uint32_t site = 0;
    if (const auto reg = universe.psl().registrable_domain(f.name)) {
      if (*reg == tenants[f.tenant].etld1) {
        std::uint32_t& cached = tenant_site[f.tenant];
        if (cached == 0) cached = intern_site(*reg);
        site = cached;
      } else {
        site = intern_site(*reg);
      }
    }
    const bool has_a = w.has_a();
    const bool has_aaaa = w.has_aaaa();
    t->facts.push_back({.has_a = has_a, .has_aaaa = has_aaaa, .site = site});
    if (has_a) t->first_a[id] = w.a->front();
    if (has_aaaa) t->first_aaaa[id] = w.aaaa->front();
    // A reachable name's walk ended at its terminal, the same for both
    // families.
    if ((has_a || has_aaaa) && w.length > 1) {
      t->terminal[id] = static_cast<std::uint32_t>(t->terminal_names.size());
      t->terminal_names.emplace_back(w.chain().back());
    }
  }
  return t;
}

}  // namespace

Crawler::Crawler(const Universe& universe, const dns::ZoneDb& zone,
                 Epoch epoch)
    : universe_(&universe),
      epoch_(epoch),
      table_(build_table(universe, zone)),
      facts_(table_->facts) {}

stats::Rng Crawler::site_rng(std::uint64_t seed, std::uint32_t site_index) {
  return stats::Rng(seed ^ (0x9e3779b97f4a7c15ull * (site_index + 1)));
}

void Crawler::load_page(const Page& page, std::uint32_t main_site,
                        std::vector<std::uint32_t>& seen, SiteCrawl& out,
                        stats::Rng& rng) const {
  // Dedup observations by (fqdn, type), the ref's 32 bits: re-fetches of
  // the same resource on later pages don't create new observations. A site
  // has at most a few hundred distinct keys (a few dozen on average), so a
  // flat vector scanned linearly is enough.
  for (const ResourceRef ref : page.resources) {
    const auto key = std::bit_cast<std::uint32_t>(ref);
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);

    const FqdnFacts f = facts_[ref.fqdn];
    ResourceObservation obs;
    obs.fqdn = ref.fqdn;
    obs.type = ref.type;
    obs.first_party = f.site != 0 && f.site == main_site;
    obs.has_a = f.has_a;
    obs.has_aaaa = f.has_aaaa;
    obs.failed = !f.reachable();
    obs.used = race(obs.has_a, obs.has_aaaa, rng);
    out.resources.push_back(obs);
  }

  for ([[maybe_unused]] auto ext : page.external_links) {
    // The paper's crawler only follows links inside the site's eTLD+1;
    // external link targets are refused, never loaded.
    ++out.external_links_refused;
  }
}

SiteCrawl Crawler::crawl_impl(std::uint32_t site_index, stats::Rng& rng,
                              int link_clicks) const {
  const Site& site = universe_->sites()[site_index];
  SiteCrawl out;
  out.site_index = site_index;
  out.fate = universe_->fate(site, epoch_);

  // The main domain's DNS answer. NXDOMAIN sites are unregistered, so the
  // failure is discovered through DNS exactly as a real crawler would.
  FqdnFacts host = facts_[site.main_fqdn];
  if (!host.reachable()) {
    out.fate = SiteFate::nxdomain;
    return out;
  }
  if (out.fate == SiteFate::other_failure) {
    // DNS answered but the TLS/HTTP exchange fails.
    return out;
  }
  out.fate = SiteFate::ok;

  // Follow the main-page redirect; classification applies to the final
  // page of the redirect chain (§4.2).
  if (site.redirect_to) {
    host = facts_[*site.redirect_to];
    if (!host.reachable()) {
      out.fate = SiteFate::other_failure;  // broken redirect target
      return out;
    }
  }
  out.main_fqdn = site.redirect_to.value_or(site.main_fqdn);
  out.main_has_a = host.has_a;
  out.main_has_aaaa = host.has_aaaa;
  out.unknown_primary = host.site == 0;
  out.main_used = race(out.main_has_a, out.main_has_aaaa, rng);

  // Load the main page.
  std::vector<std::uint32_t> seen;
  const Page main_page = universe_->page(site, 0);
  load_page(main_page, host.site, seen, out, rng);
  out.pages_loaded = 1;

  // Click up to `link_clicks` distinct same-site links, chosen at random
  // like OpenWPM's five clicks.
  std::vector<std::uint32_t> candidates(main_page.internal_links.begin(),
                                        main_page.internal_links.end());
  for (int c = 0; c < link_clicks && !candidates.empty(); ++c) {
    size_t pick = rng.below(candidates.size());
    std::uint32_t page_idx = candidates[pick];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
    load_page(universe_->page(site, page_idx), host.site, seen, out, rng);
    ++out.pages_loaded;
  }
  return out;
}

SiteCrawl Crawler::crawl(std::uint32_t site_index, stats::Rng& rng) const {
  return crawl_impl(site_index, rng, kLinkClicks);
}

SiteCrawl Crawler::crawl_main_page_only(std::uint32_t site_index,
                                        stats::Rng& rng) const {
  return crawl_impl(site_index, rng, 0);
}

std::vector<SiteCrawl> Crawler::crawl_all(std::uint64_t seed) const {
  std::vector<SiteCrawl> out;
  out.reserve(universe_->sites().size());
  for (std::uint32_t i = 0; i < universe_->sites().size(); ++i) {
    stats::Rng rng = site_rng(seed, i);
    out.push_back(crawl(i, rng));
  }
  return out;
}

}  // namespace nbv6::web
