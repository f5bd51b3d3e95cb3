#include "dns/resolver.h"

#include <algorithm>

namespace nbv6::dns {

namespace {

/// One family's answer, built from a walk of the canonical query.
ResolveResult result_of(const Resolver::Walk& w, net::Family family) {
  ResolveResult r;
  r.status = w.status(family);
  const auto chain = w.chain();
  r.chain.assign(chain.begin(), chain.end());
  if (!w.past_limit.empty()) r.chain.emplace_back(w.past_limit);
  if (w.outcome != ResolveStatus::ok) return r;
  if (family == net::Family::v4) {
    r.addresses.assign(w.a->begin(), w.a->end());
  } else {
    r.addresses.assign(w.aaaa->begin(), w.aaaa->end());
  }
  return r;
}

}  // namespace

std::string_view to_string(ResolveStatus s) {
  switch (s) {
    case ResolveStatus::ok:
      return "ok";
    case ResolveStatus::nodata:
      return "nodata";
    case ResolveStatus::nxdomain:
      return "nxdomain";
    case ResolveStatus::cname_loop:
      return "cname_loop";
  }
  return "?";
}

ResolveStatus Resolver::Walk::status(net::Family family) const {
  if (outcome != ResolveStatus::ok) return outcome;
  const bool any = family == net::Family::v4 ? has_a() : has_aaaa();
  return any ? ResolveStatus::ok : ResolveStatus::nodata;
}

Resolver::Walk Resolver::walk(std::string_view name) const {
  // Each hop is one probe: ZoneDb::lookup answers existence, CNAME and the
  // terminal record sets in a single find, and its CNAME target is a view
  // into the zone, stable while the const resolver runs.
  Walk w;
  std::string_view current = name;
  for (;;) {
    w.names[w.length++] = current;
    const ZoneDb::NameView view = db_->lookup(current);
    if (!view.exists) {
      w.outcome = ResolveStatus::nxdomain;
      return w;
    }
    if (view.cname.empty()) {
      w.outcome = ResolveStatus::ok;
      w.a = view.a;
      w.aaaa = view.aaaa;
      return w;
    }
    // A CNAME. The chain cycles if its target was visited already, and is
    // too long if the target would be hop kMaxChain + 1.
    w.outcome = ResolveStatus::cname_loop;
    if (std::ranges::find(w.chain(), view.cname) != w.chain().end()) return w;
    if (w.length == w.names.size()) {
      w.past_limit = view.cname;
      return w;
    }
    current = view.cname;
  }
}

ResolveResult Resolver::resolve(std::string_view name,
                                net::Family family) const {
  if (!is_canonical(name)) return resolve(canonicalize(name), family);
  return result_of(walk(name), family);
}

Resolver::DualStack Resolver::resolve_dual(std::string_view name) const {
  if (!is_canonical(name)) return resolve_dual(canonicalize(name));
  const Walk w = walk(name);
  return {result_of(w, net::Family::v4), result_of(w, net::Family::v6)};
}

}  // namespace nbv6::dns
