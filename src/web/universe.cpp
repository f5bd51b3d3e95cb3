#include "web/universe.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace nbv6::web {

// Names and rates by enumerator, in declaration order.
std::string_view to_string(ResourceType t) {
  static constexpr std::string_view kNames[] = {
      "image",     "script", "stylesheet", "xmlhttprequest",
      "sub_frame", "font",   "media",      "beacon"};
  static_assert(std::size(kNames) == kResourceTypeCount);
  return kNames[static_cast<std::size_t>(t)];
}

std::string_view to_string(DomainCategory c) {
  static constexpr std::string_view kNames[] = {
      "ads", "trackers", "analytics", "content delivery",
      "information technology", "social", "first party"};
  static_assert(std::size(kNames) == kDomainCategoryCount);
  return kNames[static_cast<std::size_t>(c)];
}

std::string_view to_string(Epoch e) {
  static constexpr std::string_view kNames[] = {"Oct 2024", "Apr 2025",
                                                "Jul 2025"};
  static_assert(std::size(kNames) == kEpochCount);
  return kNames[static_cast<std::size_t>(e)];
}

double category_base_adoption(DomainCategory c) {
  static constexpr double kRates[] = {0.45, 0.55, 0.80, 0.94, 0.88, 0.96, 0.6};
  static_assert(std::size(kRates) == kDomainCategoryCount);
  return kRates[static_cast<std::size_t>(c)];
}

namespace {

// Generator constants. Every universe differs only in site_count and seed.
/// Third-party tenant pool size as a fraction of site count.
constexpr double kThirdPartyRatio = 0.35;
/// Zipf exponent for third-party popularity (span heavy-tail).
constexpr double kThirdPartyZipf = 1.15;
/// Pages per site beyond the main page (the crawler clicks 5).
constexpr int kSubpagesMin = 4;
constexpr int kSubpagesMax = 7;
constexpr int kResourcesPerPageMin = 6;
constexpr int kResourcesPerPageMax = 26;
/// First-party subdomains per site and the AAAA rate they enjoy when the
/// site's main domain is AAAA-enabled (below 1.0 to produce §4.3's rare
/// first-party-only-partial sites).
constexpr int kFirstPartyFqdns = 3;
constexpr double kFirstPartyAdoptionGivenSiteV6 = 0.985;
/// Site main-domain adoption is max(own choice, hosting default): the
/// site's own propensity rises toward the top of the list, and sites on
/// IPv6-forward hosts get AAAA by default (the §5 mechanism).
/// own_choice(rank) = base + boost * exp(-rank/decay).
constexpr double kSiteAdoptionBase = 0.18;
constexpr double kSiteAdoptionBoost = 0.42;
constexpr double kSiteAdoptionDecay = 400.0;
/// Fraction of sites that embed an ads/tracker stack at all; ad-free
/// sites are the main source of IPv6-full sites.
constexpr double kAdsSiteFraction = 0.55;
/// Third-party pool-head domains outside the seeded ad-tech set are
/// treated as mature infrastructure with high adoption.
constexpr int kPopularThirdPartyCount = 3000;
constexpr double kPopularThirdPartyAdoption = 0.97;
/// Seeded ad-tech heavy hitters stay essentially IPv4-only (Fig. 18).
constexpr double kSeedThirdPartyAdoption = 0.05;
/// Loading failures at epoch 0 (grow slightly per epoch as domains rot).
constexpr double kNxdomainRate = 0.124;
constexpr double kOtherFailureRate = 0.0445;
/// Per-epoch additive drift on adoption thresholds and failure rates.
constexpr double kEpochAdoptionDrift = 0.006;
constexpr double kEpochFailureDrift = 0.006;
/// Fraction of site mains hosted in a catalogued cloud (rest self-host).
constexpr double kCloudHostedFraction = 0.78;
/// Probability a multi-FQDN third-party tenant spreads across providers.
constexpr double kMultiCloudProb = 0.35;
/// FQDNs per third-party tenant.
constexpr int kTenantFqdnsMax = 4;
// At kMaxSites, every FQDN id (a site's main, first-party and ipv4. names,
// then each third-party tenant's) fits a ResourceRef, and every page, ref
// and link offset fits a uint32_t (a site has at most two internal links
// per subpage and one external link per page).
constexpr double kMaxPages = 1.0 * kMaxSites * (1 + kSubpagesMax);
static_assert(1.0 * kMaxSites * (kFirstPartyFqdns + 2) +
                  kTenantFqdnsMax * (kThirdPartyRatio * kMaxSites + 8) <=
              kMaxFqdnId + 1.0);
static_assert(kMaxPages * kResourcesPerPageMax <= UINT32_MAX);
static_assert(kMaxPages * 2 <= UINT32_MAX);

// Paper-named heavy hitters seeded into the most popular pool slots so the
// Fig. 9 / Fig. 18 outputs read like the originals.
struct SeedDomain {
  const char* name;
  DomainCategory cat;
};
constexpr SeedDomain kSeedThirdParties[] = {
    {"doubleclick.net", DomainCategory::ads},
    {"adnxs.com", DomainCategory::ads},
    {"criteo.com", DomainCategory::ads},
    {"amazon-adsystem.com", DomainCategory::ads},
    {"rubiconproject.com", DomainCategory::ads},
    {"pubmatic.com", DomainCategory::ads},
    {"crwdcntrl.net", DomainCategory::trackers},
    {"demdex.net", DomainCategory::trackers},
    {"tapad.com", DomainCategory::trackers},
    {"dnacdn.net", DomainCategory::content_delivery},
    {"openx.net", DomainCategory::ads},
    {"rlcdn.com", DomainCategory::content_delivery},
    {"clarity.ms", DomainCategory::analytics},
    {"id5-sync.com", DomainCategory::trackers},
    {"adsrvr.org", DomainCategory::ads},
    {"33across.com", DomainCategory::ads},
    {"smartadserver.com", DomainCategory::ads},
    {"agkn.com", DomainCategory::analytics},
    {"lijit.com", DomainCategory::ads},
    {"3lift.com", DomainCategory::ads},
};

// Relative popularity of the seeds, proportional to their Fig. 18 spans
// (doubleclick.net appears on 6666 of the paper's 24,384 partial sites).
constexpr double kSeedSpanTargets[] = {
    6666, 5752, 4773, 4370, 4343, 4243, 4193, 4059, 4005, 3744,
    3691, 3453, 3389, 3276, 3242, 3151, 3104, 3038, 2870, 2825,
};
static_assert(std::size(kSeedSpanTargets) == std::size(kSeedThirdParties));

const char* category_prefix(DomainCategory c) {
  static constexpr const char* kPrefixes[] = {"ads", "trk",    "metrics", "cdn",
                                              "svc", "social", "site"};
  static_assert(std::size(kPrefixes) == kDomainCategoryCount);
  return kPrefixes[static_cast<std::size_t>(c)];
}

DomainCategory sample_category(stats::Rng& rng) {
  double u = rng.uniform();
  if (u < 0.28) return DomainCategory::ads;
  if (u < 0.42) return DomainCategory::trackers;
  if (u < 0.54) return DomainCategory::analytics;
  if (u < 0.70) return DomainCategory::content_delivery;
  if (u < 0.93) return DomainCategory::information_technology;
  return DomainCategory::social;
}

ResourceType sample_type_for_category(DomainCategory c, stats::Rng& rng) {
  double u = rng.uniform();
  switch (c) {
    case DomainCategory::ads:
      // Display ads: creatives, bid scripts, iframes, pixels.
      if (u < 0.40) return ResourceType::image;
      if (u < 0.60) return ResourceType::script;
      if (u < 0.80) return ResourceType::sub_frame;
      if (u < 0.93) return ResourceType::xmlhttprequest;
      return ResourceType::beacon;
    case DomainCategory::trackers:
      if (u < 0.45) return ResourceType::image;  // tracking pixels
      if (u < 0.70) return ResourceType::xmlhttprequest;
      if (u < 0.88) return ResourceType::script;
      return ResourceType::beacon;
    case DomainCategory::analytics:
      if (u < 0.50) return ResourceType::script;
      if (u < 0.85) return ResourceType::xmlhttprequest;
      return ResourceType::beacon;
    case DomainCategory::content_delivery:
      if (u < 0.35) return ResourceType::image;
      if (u < 0.60) return ResourceType::script;
      if (u < 0.75) return ResourceType::stylesheet;
      if (u < 0.90) return ResourceType::font;
      return ResourceType::media;
    case DomainCategory::information_technology:
      if (u < 0.40) return ResourceType::script;
      if (u < 0.65) return ResourceType::xmlhttprequest;
      if (u < 0.85) return ResourceType::image;
      return ResourceType::sub_frame;
    case DomainCategory::social:
      if (u < 0.40) return ResourceType::sub_frame;  // embeds
      if (u < 0.70) return ResourceType::script;
      return ResourceType::image;
    case DomainCategory::first_party:
      break;
  }
  if (u < 0.45) return ResourceType::image;
  if (u < 0.65) return ResourceType::script;
  if (u < 0.80) return ResourceType::stylesheet;
  if (u < 0.92) return ResourceType::xmlhttprequest;
  return ResourceType::font;
}

const char* kTlds[] = {"com", "com", "com", "com", "org", "net",  "io",
                       "co",  "de",  "fr",  "nl",  "ru",  "co.uk", "com.au",
                       "com.br", "in", "it", "pl", "jp", "app"};

const UniverseConfig& checked(const UniverseConfig& cfg) {
  if (cfg.site_count >= 0 && cfg.site_count <= kMaxSites) return cfg;
  throw std::invalid_argument(
      "Universe: site_count " + std::to_string(cfg.site_count) +
      " is outside 0.." + std::to_string(kMaxSites) + " (web::kMaxSites)");
}

}  // namespace

Universe::Universe(const UniverseConfig& cfg,
                   const cloud::ProviderCatalog& providers)
    : cfg_(checked(cfg)),
      providers_(&providers),
      psl_(PublicSuffixList::builtin()) {
  stats::Rng rng(cfg_.seed);
  build_third_parties(rng);
  build_sites(rng);
  tenants_by_name_.resize(tenants_.size());
  std::iota(tenants_by_name_.begin(), tenants_by_name_.end(), 0u);
  std::ranges::sort(tenants_by_name_, {}, [&](std::uint32_t t) {
    return std::string_view(tenants_[t].etld1);
  });
}

std::uint32_t Universe::add_tenant(std::string etld1, DomainCategory cat) {
  auto id = static_cast<std::uint32_t>(tenants_.size());
  Tenant t;
  t.etld1 = std::move(etld1);
  t.category = cat;
  t.first_fqdn = static_cast<std::uint32_t>(fqdns_.size());
  tenants_.push_back(std::move(t));
  return id;
}

std::uint32_t Universe::add_fqdn(std::string name, std::uint32_t tenant,
                                 int provider, int service, double rate,
                                 stats::Rng& rng) {
  auto id = static_cast<std::uint32_t>(fqdns_.size());
  Fqdn f;
  f.name = std::move(name);
  f.tenant = tenant;
  f.provider = provider;
  f.service = service;
  f.adopt_u = rng.uniform();
  f.adoption_rate = rate;
  fqdns_.push_back(std::move(f));
  ++tenants_[tenant].fqdn_count;  // ids stay contiguous: see Tenant
  return id;
}

std::pair<int, int> Universe::sample_hosting(stats::Rng& rng, bool prefer_cdn,
                                             double service_affinity) {
  const auto& provs = providers_->providers();

  // Weighted provider draw by domain share; top-list sites lean toward the
  // big CDN-first providers (that preference is itself part of why the top
  // of the list is more IPv6-ready).
  size_t provider;
  if (prefer_cdn && rng.chance(0.6)) {
    static constexpr const char* kCdnFirst[] = {
        "Cloudflare, Inc.", "Amazon.com, Inc.", "Google LLC",
        "Akamai International B.V.", "Fastly, Inc."};
    auto name = kCdnFirst[rng.below(std::size(kCdnFirst))];
    provider = providers_->find(name).value();
  } else {
    double total = 0;
    for (const auto& p : provs) total += p.domain_share;
    double u = rng.uniform() * total;
    provider = 0;
    for (size_t i = 0; i < provs.size(); ++i) {
      u -= provs[i].domain_share;
      if (u <= 0) {
        provider = i;
        break;
      }
    }
  }

  // Within a provider: a catalogued service (weighted by tenant share) or
  // generic hosting.
  const auto& services = provs[provider].services;
  if (!services.empty() && rng.chance(service_affinity)) {
    double total = 0;
    for (const auto& s : services) total += s.weight;
    double u = rng.uniform() * total;
    for (size_t i = 0; i < services.size(); ++i) {
      u -= services[i].weight;
      if (u <= 0) return {static_cast<int>(provider), static_cast<int>(i)};
    }
  }
  return {static_cast<int>(provider), -1};
}

void Universe::build_third_parties(stats::Rng& rng) {
  const auto n = static_cast<size_t>(
      std::max(8.0, kThirdPartyRatio * cfg_.site_count));

  for (size_t t = 0; t < n; ++t) {
    DomainCategory cat;
    std::string etld1;
    if (t < std::size(kSeedThirdParties)) {
      cat = kSeedThirdParties[t].cat;
      etld1 = kSeedThirdParties[t].name;
    } else {
      cat = sample_category(rng);
      etld1 = std::string(category_prefix(cat)) + std::to_string(t) + "." +
              kTlds[rng.below(std::size(kTlds))];
    }
    auto tenant = add_tenant(etld1, cat);

    // Ad-tech and trackers tend to run their own stacks on generic
    // hosting; everyone else leans on catalogued cloud services.
    // Only a small slice of resource FQDNs ride CNAME-identifiable cloud
    // services (the paper finds ~20k of 430k domains on such suffixes);
    // ad-tech mostly runs its own stacks.
    double affinity =
        (cat == DomainCategory::ads || cat == DomainCategory::trackers)
            ? 0.06
            : 0.10;

    int nfqdns = static_cast<int>(rng.between(1, kTenantFqdnsMax));
    auto [p0, s0] = sample_hosting(rng, /*prefer_cdn=*/t < 200, affinity);
    for (int k = 0; k < nfqdns; ++k) {
      int provider = p0;
      int service = s0;
      if (k > 0 && rng.chance(kMultiCloudProb)) {
        std::tie(provider, service) = sample_hosting(rng, false, affinity);
      }
      // Adoption causality: on a catalogued service, the service's policy
      // and measured rate determine AAAA presence outright (an always-on
      // service cannot be disabled; Table 2's rates ARE the outcome).
      // Generic hosting leaves it to the tenant: category culture (ads
      // lag, social leads) scaled by how IPv6-forward the host is.
      double rate;
      if (service >= 0) {
        const auto& svc = providers_->at(static_cast<size_t>(provider))
                              .services[static_cast<size_t>(service)];
        rate = svc.policy == cloud::V6Policy::always_on ? 1.0
                                                        : svc.v6_adoption;
      } else {
        double host_mult = std::clamp(
            providers_->at(static_cast<size_t>(provider)).generic_v6_rate /
                0.45,
            0.25, 2.0);
        rate = std::clamp(category_base_adoption(cat) * host_mult, 0.02, 0.98);
      }
      // Pool-head overrides: the seeded ad-tech giants stay IPv4-only;
      // other highly popular infrastructure domains are mature dual-stack.
      if (t < std::size(kSeedThirdParties)) {
        rate = kSeedThirdPartyAdoption;
      } else if (t < static_cast<size_t>(kPopularThirdPartyCount) &&
                 cat != DomainCategory::ads &&
                 cat != DomainCategory::trackers) {
        // Popular non-ad infrastructure is mature dual-stack; popular ad
        // networks keep their category's laggard rate, which is exactly
        // what makes them the high-span IPv4-only heavy hitters of
        // Figs. 9 and 18.
        rate = std::max(rate, kPopularThirdPartyAdoption);
      }
      static constexpr const char* kSubLabels[] = {"cdn", "static", "api",
                                                   "edge"};
      std::string name =
          k == 0 ? tenants_[tenant].etld1
                 : std::string(kSubLabels[static_cast<size_t>(k) - 1]) + "." +
                       tenants_[tenant].etld1;
      auto id = add_fqdn(std::move(name), tenant, provider, service, rate, rng);

      // Zipf popularity by tenant rank; split across the tenant's FQDNs.
      // Seed weights are assigned in a second pass below.
      double w =
          1.0 / std::pow(static_cast<double>(t + 1), kThirdPartyZipf) / nfqdns;
      third_party_pool_.push_back(id);
      third_party_weights_.push_back(w);
      if (t >= static_cast<size_t>(kPopularThirdPartyCount))
        tail_pool_.push_back(id);
    }
  }

  // Second pass: the seeded commercial web stack carries kSeedMass of all
  // third-party embeds, split across the seeds in proportion to their
  // paper-reported spans. This is what gives Fig. 18 its shape.
  constexpr double kSeedMass = 0.35;
  double rest = 0.0;
  double seed_span_total = 0.0;
  for (size_t i = 0; i < third_party_pool_.size(); ++i)
    if (fqdns_[third_party_pool_[i]].tenant >= std::size(kSeedThirdParties))
      rest += third_party_weights_[i];
  for (double v : kSeedSpanTargets) seed_span_total += v;
  for (size_t i = 0; i < third_party_pool_.size(); ++i) {
    auto tenant = fqdns_[third_party_pool_[i]].tenant;
    if (tenant >= std::size(kSeedThirdParties)) continue;
    double share = kSeedSpanTargets[tenant] / seed_span_total;
    double per_fqdn =
        share / static_cast<double>(tenants_[tenant].fqdn_count);
    third_party_weights_[i] = rest * kSeedMass / (1.0 - kSeedMass) * per_fqdn;
  }
}

void Universe::build_sites(stats::Rng& rng) {
  stats::DiscreteSampler tp_sampler(third_party_weights_);
  sites_.reserve(static_cast<size_t>(cfg_.site_count));
  // Room for the most refs the draws can make; capacity that is never
  // written is never touched, so it costs no memory.
  pages_.resources.items.reserve(static_cast<size_t>(cfg_.site_count) *
                                 (1 + kSubpagesMax) * kResourcesPerPageMax);

  for (int rank = 0; rank < cfg_.site_count; ++rank) {
    Site site;
    site.rank = rank;
    site.fail_u = rng.uniform();

    // A sprinkle of sites whose "domain" is itself a public suffix — the
    // paper's tiny "Unknown Primary Domain" bucket (8/6/3 sites).
    bool unknown_primary = rank > 100 && rank % 30011 == 7;
    std::string etld1 =
        unknown_primary
            ? "zone" + std::to_string(rank) + ".ck"  // *.ck is a PSL wildcard
            : "site" + std::to_string(rank) + "." +
                  kTlds[rng.below(std::size(kTlds))];
    auto tenant = add_tenant(etld1, DomainCategory::first_party);
    site.tenant = tenant;

    // Main-domain IPv6 adoption (Fig. 6's gradient): the larger of the
    // site's own propensity (rising with rank) and the hosting provider's
    // default behaviour — a site proxied by an IPv6-forward host gets AAAA
    // without lifting a finger (§5's causal insight). Site apexes carry
    // direct A/AAAA records (apex names cannot CNAME).
    auto [prov, svc] = sample_hosting(rng, /*prefer_cdn=*/rank < 2000,
                                      /*service_affinity=*/0.0);
    svc = -1;
    if (!rng.chance(kCloudHostedFraction)) prov = -1;

    double own_choice = kSiteAdoptionBase +
                        kSiteAdoptionBoost * std::exp(-rank / kSiteAdoptionDecay);
    double hosting_default =
        prov >= 0 ? providers_->at(static_cast<size_t>(prov)).generic_v6_rate
                  : 0.0;
    double site_rate = std::max(own_choice, hosting_default);
    double site_u = rng.uniform();

    site.main_fqdn = add_fqdn(etld1, tenant, prov, svc, site_rate, rng);
    fqdns_[site.main_fqdn].adopt_u = site_u;

    // First-party subdomains. When the site is AAAA-enabled these usually
    // follow suit, but not always (assets.national-geographic.org, §4.3).
    static constexpr const char* kFp[] = {"www", "static", "img", "api"};
    std::vector<std::uint32_t> fp_ids{site.main_fqdn};
    for (int k = 0; k < kFirstPartyFqdns; ++k) {
      double rate = kFirstPartyAdoptionGivenSiteV6;
      auto id = add_fqdn(std::string(kFp[k]) + "." + etld1, tenant, prov, svc,
                         rate, rng);
      // First-party AAAA is conditional on the site itself being AAAA:
      // encode by making the subdomain's latent draw fail whenever the
      // site's does.
      if (site_u >= site_rate) fqdns_[id].adoption_rate = 0.0;
      fp_ids.push_back(id);
    }

    // A sprinkle of sites deliberately serve version-specific subdomains
    // ("ipv4.<site>" stays A-only by design) — §4.4's misclassification
    // edge case (the paper estimates 106 such sites, 0.4% of partial).
    if (rng.chance(0.004)) {
      auto id = add_fqdn("ipv4." + etld1, tenant, prov, svc, 0.0, rng);
      fp_ids.push_back(id);
    }

    // Optional redirect main -> www (the crawler follows it).
    if (rng.chance(0.15)) site.redirect_to = fp_ids[1];

    // The site's third-party stack: a site embeds the same handful of ad,
    // analytics, and CDN partners on every page, so distinct third-party
    // dependencies per site stay bounded (and heavy hitters recur across
    // sites — the Fig. 8 span skew). Ad-free sites (no monetization)
    // skip ads/tracker domains entirely; they are where IPv6-full sites
    // mostly come from.
    // The most popular sites monetize through their own (dual-stack)
    // platforms more often than through embedded third-party ad stacks.
    double ads_p = kAdsSiteFraction * (rank < 300 ? 0.45 : 1.0);
    bool has_ads = rng.chance(ads_p);
    // Ad-free sites carry none of the commercial ad/tracking stack — no
    // seeds, no ads, no trackers. They are where IPv6-full comes from.
    auto allowed = [&](std::uint32_t pick) {
      if (has_ads) return true;
      const auto& f = fqdns_[pick];
      if (f.tenant < std::size(kSeedThirdParties)) return false;
      auto cat = tenants_[f.tenant].category;
      return cat != DomainCategory::ads && cat != DomainCategory::trackers;
    };
    std::vector<std::uint32_t> site_tp;
    int ntp = static_cast<int>(rng.between(4, has_ads ? 12 : 8));
    for (int k = 0; k < ntp; ++k) {
      std::uint32_t pick = third_party_pool_[tp_sampler.sample(rng)];
      for (int tries = 0; tries < 12 && !allowed(pick); ++tries)
        pick = third_party_pool_[tp_sampler.sample(rng)];
      if (allowed(pick)) site_tp.push_back(pick);
    }
    // Every site also has a couple of niche partners nobody else uses
    // (its CMS vendor, a regional CDN): uniform draws from the deep tail.
    // These are why fixing only the top-span domains cannot fix every
    // partial site (Fig. 10's long tail).
    // Ad-carrying (commercial) sites integrate more vendors; minimal
    // ad-free sites often have none.
    int nniche = static_cast<int>(
        has_ads ? rng.between(1, 3) : rng.between(0, 1));
    for (int k = 0; k < nniche && !tail_pool_.empty(); ++k) {
      std::uint32_t pick = tail_pool_[rng.below(tail_pool_.size())];
      for (int tries = 0; tries < 12 && !allowed(pick); ++tries)
        pick = tail_pool_[rng.below(tail_pool_.size())];
      if (allowed(pick)) site_tp.push_back(pick);
    }
    if (site_tp.empty())
      site_tp.push_back(third_party_pool_[tp_sampler.sample(rng)]);

    // Pages, appended as rows of the flat arrays.
    int nsub = static_cast<int>(rng.between(kSubpagesMin, kSubpagesMax));
    site.first_page =
        static_cast<std::uint32_t>(pages_.resources.begin.size() - 1);
    site.page_count = static_cast<std::uint32_t>(1 + nsub);
    for (std::uint32_t pi = 0; pi < site.page_count; ++pi) {
      int nres = static_cast<int>(
          rng.between(kResourcesPerPageMin, kResourcesPerPageMax));
      for (int r = 0; r < nres; ++r) {
        ResourceRef ref;
        if (rng.chance(0.38)) {
          ref.fqdn = fp_ids[rng.below(fp_ids.size())];
          ref.type = sample_type_for_category(DomainCategory::first_party, rng);
        } else {
          ref.fqdn = site_tp[rng.below(site_tp.size())];
          ref.type = sample_type_for_category(
              tenants_[fqdns_[ref.fqdn].tenant].category, rng);
        }
        pages_.resources.items.push_back(ref);
      }
      // Link structure: the main page links to every subpage; subpages
      // link onward to a couple of peers.
      if (pi == 0) {
        for (std::uint32_t j = 1; j <= static_cast<std::uint32_t>(nsub); ++j)
          pages_.internal_links.items.push_back(j);
      } else if (nsub > 1) {
        pages_.internal_links.items.push_back(
            1 + static_cast<std::uint32_t>(rng.below(static_cast<std::uint64_t>(nsub))));
      }
      // Off-site links the crawler must refuse (same-site check).
      if (rng.chance(0.3) && !third_party_pool_.empty()) {
        pages_.external_links.items.push_back(
            third_party_pool_[tp_sampler.sample(rng)]);
      }
      pages_.resources.end_row();
      pages_.internal_links.end_row();
      pages_.external_links.end_row();
    }

    sites_.push_back(std::move(site));
  }
}

SiteFate Universe::fate(const Site& s, Epoch e) const {
  const auto ei = static_cast<int>(e);
  double nx = kNxdomainRate + kEpochFailureDrift * ei * 0.7;
  double other = kOtherFailureRate + kEpochFailureDrift * ei * 0.3;
  if (s.fail_u < nx) return SiteFate::nxdomain;
  if (s.fail_u < nx + other) return SiteFate::other_failure;
  return SiteFate::ok;
}

bool Universe::has_aaaa(std::uint32_t fqdn, Epoch e) const {
  const Fqdn& f = fqdns_[fqdn];
  double rate = f.adoption_rate + kEpochAdoptionDrift * static_cast<int>(e);
  return f.adopt_u < std::min(1.0, rate);
}

dns::ZoneDb Universe::build_zone(Epoch e) const {
  dns::ZoneDb zone;

  auto register_fqdn = [&](std::uint32_t id) {
    const Fqdn& f = fqdns_[id];
    bool aaaa = has_aaaa(id, e);

    // The name that holds the addresses: the FQDN itself, or its CNAME
    // target. Both are interned straight from these views.
    std::string_view owner = f.name;
    std::string target;
    if (f.provider >= 0 && f.service >= 0) {
      // CNAME chain into the provider service's namespace: the §5.3
      // identification signal.
      const auto& svc = providers_->at(static_cast<size_t>(f.provider))
                            .services[static_cast<size_t>(f.service)];
      target = "t";
      target += std::to_string(id);
      target += '.';
      target += svc.cname_suffix;
      zone.add_cname(owner, target);
      owner = target;
    }

    if (f.provider >= 0) {
      auto prov = static_cast<size_t>(f.provider);
      // Attribution quirk: some providers (Bunnyway) serve AAAA from their
      // own AS while the A records sit in a partner's address space.
      size_t a_prov = providers_->a_record_host(prov).value_or(prov);
      zone.add_a(owner, providers_->v4_address(a_prov, id));
      if (aaaa) zone.add_aaaa(owner, providers_->v6_address(prov, id));
    } else {
      // Self-hosted: address space outside every provider announcement.
      zone.add_a(owner, net::IPv4Addr((93u << 24) + id + 1));
      if (aaaa)
        zone.add_aaaa(owner, net::IPv6Addr::from_halves(
                                 (0x2c0full << 48) | 1, id + 1));
    }
  };

  // Third-party and site-owned FQDNs; NXDOMAIN sites stay unregistered
  // (that IS their failure mode).
  std::vector<bool> skip(fqdns_.size(), false);
  for (const auto& site : sites_) {
    if (fate(site, e) == SiteFate::nxdomain) {
      const Tenant& t = tenants_[site.tenant];
      std::fill_n(skip.begin() + t.first_fqdn, t.fqdn_count, true);
    }
  }
  for (std::uint32_t id = 0; id < fqdns_.size(); ++id)
    if (!skip[id]) register_fqdn(id);

  return zone;
}

std::optional<DomainCategory> Universe::categorize(
    std::string_view etld1) const {
  const auto it = std::ranges::lower_bound(
      tenants_by_name_, etld1, {},
      [&](std::uint32_t t) { return std::string_view(tenants_[t].etld1); });
  if (it == tenants_by_name_.end() || tenants_[*it].etld1 != etld1)
    return std::nullopt;
  return tenants_[*it].category;
}

}  // namespace nbv6::web
