#include "web/crawler.h"

#include <algorithm>
#include <unordered_set>

namespace nbv6::web {

namespace {

/// Same-site links to click beyond the main page (paper: 5).
constexpr int kLinkClicks = 5;
/// Per dual-stack fetch, the probability IPv4 wins the Happy Eyeballs race
/// anyway (the paper's "about 1 in 10 *sites*" via ~30 fetches).
constexpr double kHeV4WinProb = 0.004;

}  // namespace

Crawler::Crawler(const Universe& universe, const dns::ZoneDb& zone,
                 Epoch epoch)
    : universe_(&universe), zone_(&zone), resolver_(zone), epoch_(epoch) {}

void Crawler::load_page(const Page& page, SiteCrawl& out,
                        stats::Rng& rng) const {
  // Dedup observations by (fqdn, type): re-fetches of the same resource on
  // later pages don't create new observations. The seen-set is rebuilt from
  // the accumulated observations; pages are small, so this stays cheap.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(out.resources.size() * 2);
  for (const auto& r : out.resources)
    seen.insert((static_cast<std::uint64_t>(r.fqdn) << 3) |
                static_cast<std::uint64_t>(r.type));

  for (const auto& ref : page.resources) {
    std::uint64_t key = (static_cast<std::uint64_t>(ref.fqdn) << 3) |
                        static_cast<std::uint64_t>(ref.type);
    if (!seen.insert(key).second) continue;

    const Fqdn& f = universe_->fqdns()[ref.fqdn];
    auto dual = resolver_.resolve_dual(f.name);

    ResourceObservation obs;
    obs.fqdn = ref.fqdn;
    obs.type = ref.type;
    obs.first_party = universe_->psl().same_site(f.name, out.main_host);
    obs.has_a = dual.has_v4();
    obs.has_aaaa = dual.has_v6();
    obs.failed = !dual.reachable();
    if (obs.has_a && obs.has_aaaa) {
      obs.used =
          rng.chance(kHeV4WinProb) ? net::Family::v4 : net::Family::v6;
    } else {
      obs.used = obs.has_aaaa ? net::Family::v6 : net::Family::v4;
    }
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

  // Resolve the main domain. NXDOMAIN sites are unregistered, so the
  // failure is discovered through DNS exactly as a real crawler would.
  const Fqdn& main = universe_->fqdns()[site.main_fqdn];
  auto dual = resolver_.resolve_dual(main.name);
  if (!dual.reachable()) {
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
  std::uint32_t effective_main = site.main_fqdn;
  if (site.redirect_to) {
    effective_main = *site.redirect_to;
    dual = resolver_.resolve_dual(universe_->fqdns()[effective_main].name);
    if (!dual.reachable()) {
      out.fate = SiteFate::other_failure;  // broken redirect target
      return out;
    }
  }
  out.main_host = universe_->fqdns()[effective_main].name;
  out.main_has_a = dual.has_v4();
  out.main_has_aaaa = dual.has_v6();
  out.unknown_primary =
      !universe_->psl().registrable_domain(out.main_host).has_value();
  if (out.main_has_a && out.main_has_aaaa) {
    out.main_used =
        rng.chance(kHeV4WinProb) ? net::Family::v4 : net::Family::v6;
  } else {
    out.main_used = out.main_has_aaaa ? net::Family::v6 : net::Family::v4;
  }

  // Load the main page.
  load_page(site.pages[0], out, rng);
  out.pages_loaded = 1;

  // Click up to `link_clicks` distinct same-site links, chosen at random
  // like OpenWPM's five clicks.
  std::vector<std::uint32_t> candidates = site.pages[0].internal_links;
  for (int c = 0; c < link_clicks && !candidates.empty(); ++c) {
    size_t pick = rng.below(candidates.size());
    std::uint32_t page_idx = candidates[pick];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
    load_page(site.pages[page_idx], out, rng);
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
    stats::Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
    out.push_back(crawl(i, rng));
  }
  return out;
}

}  // namespace nbv6::web
