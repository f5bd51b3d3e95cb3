// reference_resolve: the per-family resolver Resolver::resolve ran before
// the one allocation-free chain walk, kept as the reference dns_test diffs
// resolve() and resolve_dual() against. It canonicalizes the query, grows
// the reported chain as a vector of strings hop by hop, detects loops by
// scanning that vector, and gives up after kMaxChain + 1 lookups with the
// over-limit target appended.
#pragma once

#include <algorithm>
#include <string>
#include <string_view>

#include "dns/resolver.h"
#include "dns/zone.h"

namespace nbv6::testutil {

inline dns::ResolveResult reference_resolve(const dns::ZoneDb& db,
                                            std::string_view name,
                                            net::Family family) {
  dns::ResolveResult r;
  const std::string first = dns::canonicalize(name);
  std::string_view current = first;
  r.chain.emplace_back(first);

  for (int hop = 0; hop <= dns::Resolver::kMaxChain; ++hop) {
    const dns::ZoneDb::NameView view = db.lookup(current);
    if (!view.exists) {
      r.status = dns::ResolveStatus::nxdomain;
      return r;
    }
    if (!view.cname.empty()) {
      if (std::find(r.chain.begin(), r.chain.end(), view.cname) !=
          r.chain.end()) {
        r.status = dns::ResolveStatus::cname_loop;
        return r;
      }
      current = view.cname;
      r.chain.emplace_back(current);
      continue;
    }
    if (family == net::Family::v4) {
      for (auto a : *view.a) r.addresses.emplace_back(a);
    } else {
      for (const auto& a : *view.aaaa) r.addresses.emplace_back(a);
    }
    r.status = r.addresses.empty() ? dns::ResolveStatus::nodata
                                   : dns::ResolveStatus::ok;
    return r;
  }
  r.status = dns::ResolveStatus::cname_loop;
  return r;
}

}  // namespace nbv6::testutil
