#include "cloud/analysis.h"

#include <algorithm>
#include <unordered_map>

namespace nbv6::cloud {

namespace {

/// (A-record provider, AAAA-record provider) of one record: one catalog
/// lookup per present address.
std::pair<std::optional<size_t>, std::optional<size_t>> attribute_record(
    const DomainRecord& r, const ProviderCatalog& catalog) {
  return {r.a_addr ? catalog.provider_of(*r.a_addr) : std::nullopt,
          r.aaaa_addr ? catalog.provider_of(*r.aaaa_addr) : std::nullopt};
}

}  // namespace

std::vector<ProviderBreakdownRow> provider_breakdown(
    std::span<const DomainRecord> records, const ProviderCatalog& catalog) {
  std::map<size_t, ProviderBreakdownRow> rows;  // keyed by provider index
  ProviderBreakdownRow overall;
  overall.org = "Overall";

  for (const auto& r : records) {
    // Global classification, independent of attribution.
    ++overall.total;
    if (r.has_a() && r.has_aaaa())
      ++overall.v6_full;
    else if (r.has_a())
      ++overall.v4_only;
    else
      ++overall.v6_only;

    const auto [prov_a, prov_6] = attribute_record(r, catalog);

    auto classify_under = [&](size_t prov) {
      auto& row = rows[prov];
      row.org = catalog.at(prov).org_name;
      ++row.total;
      bool a_here = prov_a == prov && r.has_a();
      bool aaaa_here = prov_6 == prov && r.has_aaaa();
      if (a_here && aaaa_here)
        ++row.v6_full;
      else if (a_here)
        ++row.v4_only;  // its AAAA, if any, lives in someone else's space
      else
        ++row.v6_only;
    };

    if (prov_a) classify_under(*prov_a);
    if (prov_6 && prov_6 != prov_a) classify_under(*prov_6);
  }

  std::vector<ProviderBreakdownRow> out;
  out.push_back(overall);
  for (auto& [_, row] : rows) out.push_back(std::move(row));
  std::sort(out.begin() + 1, out.end(),
            [](const ProviderBreakdownRow& a, const ProviderBreakdownRow& b) {
              if (a.total != b.total) return a.total > b.total;
              return a.org < b.org;
            });
  return out;
}

std::vector<ServiceAdoptionRow> service_breakdown(
    std::span<const DomainRecord> records, const ProviderCatalog& catalog) {
  // Build a suffix table once: suffix -> (provider, service).
  struct Slot {
    size_t provider;
    size_t service;
  };
  std::vector<std::pair<std::string, Slot>> suffixes;
  for (size_t p = 0; p < catalog.size(); ++p) {
    const auto& services = catalog.at(p).services;
    for (size_t s = 0; s < services.size(); ++s)
      suffixes.emplace_back(services[s].cname_suffix, Slot{p, s});
  }

  auto match = [&suffixes](std::string_view terminal) -> const Slot* {
    for (const auto& [suffix, slot] : suffixes) {
      if (terminal.size() > suffix.size() &&
          terminal.ends_with(suffix) &&
          terminal[terminal.size() - suffix.size() - 1] == '.') {
        return &slot;
      }
      if (terminal == suffix) return &slot;
    }
    return nullptr;
  };

  std::map<std::pair<size_t, size_t>, ServiceAdoptionRow> rows;
  for (const auto& r : records) {
    const Slot* slot = match(r.cname_terminal);
    if (slot == nullptr) continue;
    auto& row = rows[{slot->provider, slot->service}];
    if (row.total == 0) {
      const auto& svc = catalog.at(slot->provider).services[slot->service];
      row.provider_org = catalog.at(slot->provider).org_name;
      row.service_name = svc.name;
      row.policy = svc.policy;
    }
    ++row.total;
    if (r.has_aaaa()) ++row.v6_ready;
  }

  std::vector<ServiceAdoptionRow> out;
  out.reserve(rows.size());
  for (auto& [_, row] : rows) out.push_back(std::move(row));
  // Provider order, then descending readiness within provider (Table 2).
  std::sort(out.begin(), out.end(),
            [](const ServiceAdoptionRow& a, const ServiceAdoptionRow& b) {
              if (a.provider_org != b.provider_org)
                return a.provider_org < b.provider_org;
              return a.pct_ready() > b.pct_ready();
            });
  return out;
}

MultiCloudComparison::MultiCloudComparison(
    std::span<const DomainRecord> records, const ProviderCatalog& catalog,
    const std::map<std::string, std::string>& merge, double alpha) {
  auto canonical_org = [&merge](std::string org) {
    auto it = merge.find(org);
    return it == merge.end() ? org : it->second;
  };

  // Tenant -> org -> (subdomains, IPv6-full subdomains). A subdomain is
  // attributed to the org hosting its A record (falling back to the AAAA
  // org for AAAA-only names); "IPv6-full" means it has both record types.
  struct Share {
    int n = 0;
    int full = 0;
  };
  std::map<std::string, std::map<std::string, Share>> tenants;
  for (const auto& r : records) {
    const auto [prov_a, prov_6] = attribute_record(r, catalog);
    const auto prov = prov_a ? prov_a : prov_6;
    if (!prov || r.etld1.empty()) continue;
    auto& share = tenants[r.etld1][canonical_org(catalog.at(*prov).org_name)];
    ++share.n;
    if (r.has_a() && r.has_aaaa()) ++share.full;
  }

  // Keep multi-cloud tenants only.
  std::vector<const std::map<std::string, Share>*> multi;
  std::map<std::string, bool> org_seen;
  for (const auto& [etld1, shares] : tenants) {
    if (shares.size() < 2) continue;
    ++tenant_count_;
    multi.push_back(&shares);
    for (const auto& [org, _] : shares) org_seen[org] = true;
  }
  for (const auto& [org, _] : org_seen) orgs_.push_back(org);

  // Pairwise Wilcoxon over shared tenants' IPv6-full fractions.
  std::vector<double> raw_p;
  std::vector<size_t> tested;  // indices into pairs_
  for (size_t i = 0; i < orgs_.size(); ++i) {
    for (size_t j = i + 1; j < orgs_.size(); ++j) {
      PairComparison pc;
      pc.org1 = orgs_[i];
      pc.org2 = orgs_[j];

      std::vector<double> diffs;
      for (const auto* shares : multi) {
        auto it1 = shares->find(pc.org1);
        auto it2 = shares->find(pc.org2);
        if (it1 == shares->end() || it2 == shares->end()) continue;
        double f1 = static_cast<double>(it1->second.full) / it1->second.n;
        double f2 = static_cast<double>(it2->second.full) / it2->second.n;
        if (f1 != f2) diffs.push_back(f1 - f2);
      }
      pc.differing_tenants = static_cast<int>(diffs.size());
      pc.comparable = diffs.size() >= 2;  // the paper's minimum
      if (pc.comparable) {
        if (auto w = stats::wilcoxon_signed_rank(diffs)) {
          pc.effect_size_r = w->effect_size_r;
          pc.p_value = w->p_value;
          raw_p.push_back(pc.p_value);
          tested.push_back(pairs_.size());
        } else {
          pc.comparable = false;
        }
      }
      pairs_.push_back(std::move(pc));
    }
  }

  auto holm = stats::holm_bonferroni(raw_p, alpha);
  for (size_t k = 0; k < tested.size(); ++k)
    pairs_[tested[k]].significant = holm.reject[k];
}

int MultiCloudComparison::wins(const std::string& org) const {
  int w = 0;
  for (const auto& p : pairs_) {
    if (!p.significant) continue;
    if (p.org1 == org && p.effect_size_r > 0) ++w;
    if (p.org2 == org && p.effect_size_r < 0) ++w;
  }
  return w;
}

}  // namespace nbv6::cloud
