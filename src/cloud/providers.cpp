#include "cloud/providers.h"

#include <cassert>

namespace nbv6::cloud {

std::string_view to_string(V6Policy p) {
  switch (p) {
    case V6Policy::always_on:
      return "Always On";
    case V6Policy::default_on:
      return "Default-On, Opt-out";
    case V6Policy::opt_in:
      return "Opt-in";
    case V6Policy::opt_in_code:
      return "Opt-in (code change)";
    case V6Policy::unsupported:
      return "Unsupported";
  }
  return "?";
}

namespace {

CloudService svc(std::string name, std::string suffix, V6Policy policy,
                 double adoption, double weight) {
  CloudService s;
  s.name = std::move(name);
  s.cname_suffix = std::move(suffix);
  s.policy = policy;
  s.v6_adoption = adoption;
  s.weight = weight;
  return s;
}

}  // namespace

ProviderCatalog::ProviderCatalog() {
  using P = V6Policy;
  auto add = [this](Provider p) { providers_.push_back(std::move(p)); };

  // Domain shares follow Table 3's counts (out of 272,964 total); service
  // weights follow Table 2's per-service totals; adoption rates are the
  // measured "% IPv6-ready" columns.
  {
    Provider p;
    p.org_name = "Cloudflare, Inc.";
    p.asns = {13335, 209242};
    p.domain_share = 0.217;
    p.generic_v6_rate = 0.87;  // org-wide IPv6-full is 85.2%
    p.services = {
        svc("Cloudflare CDN", "cdn.cloudflare.net", P::default_on, 0.701, 4402),
    };
    add(p);
  }
  {
    Provider p;
    p.org_name = "Amazon.com, Inc.";
    p.asns = {16509, 14618};
    p.domain_share = 0.212;
    p.generic_v6_rate = 0.12;
    p.services = {
        svc("Amazon CloudFront CDN", "cloudfront.net", P::default_on, 0.711, 12851),
        svc("Amazon Elastic Load Balancer", "elb.amazonaws.com", P::opt_in, 0.074, 2731),
        svc("Amazon S3", "s3.amazonaws.com", P::opt_in_code, 0.004, 1862),
        svc("Amazon API Gateway", "execute-api.amazonaws.com", P::opt_in_code, 0.0, 419),
        svc("Amazon Global Accelerator", "awsglobalaccelerator.com", P::opt_in, 0.027, 150),
        svc("Amazon Web App. Firewall", "waf.amazonaws.com", P::opt_in_code, 0.0, 134),
    };
    add(p);
  }
  {
    Provider p;
    p.org_name = "Google LLC";
    p.asns = {15169, 396982};
    p.domain_share = 0.149;
    p.generic_v6_rate = 0.67;
    p.services = {
        svc("Google Cloud Run", "run.app", P::default_on, 1.0, 334),
        svc("Google App Engine", "appspot.com", P::default_on, 1.0, 150),
    };
    add(p);
  }
  {
    Provider p;
    p.org_name = "Akamai International B.V.";
    p.asns = {20940};
    p.domain_share = 0.0386;
    p.generic_v6_rate = 0.50;
    p.services = {
        svc("Akamai CDN", "edgekey.net", P::default_on, 0.488, 7419),
        svc("Akamai NetStorage", "akamaihd.net", P::default_on, 0.484, 1633),
    };
    add(p);
  }
  {
    Provider p;
    p.org_name = "Fastly, Inc.";
    p.asns = {54113};
    p.domain_share = 0.0284;
    p.generic_v6_rate = 0.343;
    add(p);
  }
  {
    Provider p;
    p.org_name = "Microsoft Corporation";
    p.asns = {8075};
    p.domain_share = 0.0201;
    p.generic_v6_rate = 0.10;
    p.services = {
        svc("Azure Stack/IoT Edge", "azure-devices.net", P::opt_in, 1.0, 1134),
        svc("Azure Front Door CDN", "azurefd.net", P::always_on, 1.0, 913),
        svc("Azure Cloud Services / VMs", "cloudapp.azure.com", P::opt_in, 0.003, 607),
        svc("Azure Websites", "azurewebsites.net", P::unsupported, 0.0, 544),
        svc("Azure Blob Storage", "blob.core.windows.net", P::unsupported, 0.0, 354),
    };
    add(p);
  }
  {
    Provider p;
    p.org_name = "Akamai Technologies, Inc.";
    p.asns = {16625};
    p.domain_share = 0.0198;
    p.generic_v6_rate = 0.034;
    add(p);
  }
  {
    Provider p;
    p.org_name = "Cloudflare London, LLC";
    p.asns = {203898};
    p.domain_share = 0.0127;
    p.generic_v6_rate = 0.166;
    add(p);
  }
  {
    Provider p;
    p.org_name = "Hetzner Online GmbH";
    p.asns = {24940};
    p.domain_share = 0.0121;
    p.generic_v6_rate = 0.174;
    add(p);
  }
  {
    Provider p;
    p.org_name = "OVH SAS";
    p.asns = {16276};
    p.domain_share = 0.0115;
    p.generic_v6_rate = 0.130;
    add(p);
  }
  {
    Provider p;
    p.org_name = "Hangzhou Alibaba Advertising Co.,Ltd.";
    p.asns = {37963};
    p.domain_share = 0.0110;
    p.generic_v6_rate = 0.202;
    add(p);
  }
  {
    Provider p;
    p.org_name = "Datacamp Limited";
    p.asns = {60068};
    p.domain_share = 0.0106;
    p.generic_v6_rate = 0.40;
    p.services = {
        svc("CDN77", "cdn77.org", P::opt_in, 0.887, 759),
        svc("bunny.net CDN", "b-cdn.net", P::default_on, 0.167, 1300),
    };
    add(p);
  }
  {
    Provider p;
    p.org_name = "DigitalOcean, LLC";
    p.asns = {14061};
    p.domain_share = 0.0070;
    p.generic_v6_rate = 0.092;
    add(p);
  }
  {
    Provider p;
    p.org_name = "Incapsula Inc";
    p.asns = {19551};
    p.domain_share = 0.0050;
    p.generic_v6_rate = 0.035;
    add(p);
  }
  {
    Provider p;
    // Bunnyway's tenants take AAAA records in Bunnyway address space while
    // their A records are served from Datacamp's (the partnership §5.1
    // unpicks): org-level attribution therefore sees it as 99.5% IPv6-only.
    Provider& q = p;
    q.org_name = "BUNNYWAY, informacijske storitve d.o.o.";
    q.asns = {200325};
    q.domain_share = 0.0048;
    q.generic_v6_rate = 0.995;
    q.a_records_hosted_by = "Datacamp Limited";
    q.services = {
        svc("bunny.net CDN", "bunnyinfra.net", P::default_on, 0.999, 1004),
    };
    add(p);
  }
  {
    // Everything else: the long tail of small hosts outside the top-15.
    Provider p;
    p.org_name = "Other Hosting";
    p.asns = {399999};
    p.domain_share = 0.24;
    p.generic_v6_rate = 0.45;
    add(p);
  }

  // Address plan + BGP announcements: each ASN owns a /12 of v4 at
  // 40.0.0.0 and a /44 of v6 at 2a00::, indexed by global ASN slot.
  std::uint32_t slot = 0;
  for (size_t i = 0; i < providers_.size(); ++i) {
    for (net::Asn asn : providers_[i].asns) {
      // /12 per AS slot carved from 40.0.0.0/8 onward; addition (not OR)
      // so slots past 15 carry cleanly into the next /8.
      std::uint32_t base_value = (40u << 24) + (slot << 20);
      as_map_.announce(net::Prefix4(net::IPv4Addr(base_value), 12), asn);
      std::uint64_t hi = (0x2a00ull << 48) | (static_cast<std::uint64_t>(slot) << 24);
      as_map_.announce(
          net::Prefix6(net::IPv6Addr::from_halves(hi, 0), 44), asn);
      as_map_.register_name(asn, providers_[i].org_name);
      if (asn == providers_[i].asns.front()) {
        slot_v4_.push_back(base_value);
        slot_hi_.push_back(hi);
      }
      provider_by_asn_[asn] = i;
      ++slot;
    }
  }
}

std::optional<size_t> ProviderCatalog::find(std::string_view org_name) const {
  for (size_t i = 0; i < providers_.size(); ++i)
    if (providers_[i].org_name == org_name) return i;
  return std::nullopt;
}

net::IPv4Addr ProviderCatalog::v4_address(size_t provider,
                                          std::uint32_t i) const {
  assert(provider < providers_.size());
  return net::IPv4Addr(slot_v4_[provider] | ((i + 1) & 0x000fffffu));
}

net::IPv6Addr ProviderCatalog::v6_address(size_t provider,
                                          std::uint32_t i) const {
  assert(provider < providers_.size());
  return net::IPv6Addr::from_halves(slot_hi_[provider], i + 1);
}

std::optional<size_t> ProviderCatalog::provider_of(const net::IpAddr& a) const {
  auto asn = as_map_.lookup(a);
  if (!asn) return std::nullopt;
  auto it = provider_by_asn_.find(*asn);
  if (it == provider_by_asn_.end()) return std::nullopt;
  return it->second;
}

std::optional<size_t> ProviderCatalog::a_record_host(size_t provider) const {
  const auto& quirk = providers_[provider].a_records_hosted_by;
  if (quirk.empty()) return std::nullopt;
  return find(quirk);
}

}  // namespace nbv6::cloud
