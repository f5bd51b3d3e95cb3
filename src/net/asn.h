// Autonomous-system attribution: a BGP-like table mapping address prefixes
// to origin AS numbers.
//
// Used twice in the reproduction, exactly as in the paper: §3.4 maps flow
// destination addresses to service ASes ("from BGP routing tables"), and
// §5.1 maps resource addresses to cloud providers. Both tables are small
// and announce one or two prefix lengths per family, so each family is an
// ordered map from prefix to origin plus the set of announced lengths:
// longest-prefix match is one exact probe per length, longest first.
// Lookups and name() are const reads, so a built map is safe to share
// across threads.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

#include "net/ip.h"
#include "net/prefix.h"

namespace nbv6::net {

using Asn = std::uint32_t;

/// Routing-table view: prefix announcements with origin ASNs, plus an
/// AS-number → AS-name registry (the "AS name" column of Figure 4).
class AsMap {
 public:
  /// Announcing an already announced prefix replaces its origin.
  void announce(const Prefix4& p, Asn asn) { v4_.announce(p, asn); }
  void announce(const Prefix6& p, Asn asn) { v6_.announce(p, asn); }

  void register_name(Asn asn, std::string name) {
    names_[asn] = std::move(name);
  }

  /// Origin AS of the longest matching announcement, if any.
  [[nodiscard]] std::optional<Asn> lookup(const IpAddr& addr) const {
    if (addr.is_v4()) return v4_.lookup(addr.v4());
    return v6_.lookup(addr.v6());
  }

  [[nodiscard]] std::string name(Asn asn) const {
    auto it = names_.find(asn);
    return it == names_.end() ? "AS" + std::to_string(asn) : it->second;
  }

 private:
  template <class Prefix>
  struct Routes {
    std::map<Prefix, Asn> routes;
    std::set<int, std::greater<>> lengths;  // longest first

    void announce(const Prefix& p, Asn asn) {
      routes[p] = asn;
      lengths.insert(p.length());
    }

    template <class Addr>
    std::optional<Asn> lookup(const Addr& a) const {
      for (int len : lengths)
        if (auto it = routes.find(Prefix(a, len)); it != routes.end())
          return it->second;
      return std::nullopt;
    }
  };

  Routes<Prefix4> v4_;
  Routes<Prefix6> v6_;
  std::unordered_map<Asn, std::string> names_;
};

}  // namespace nbv6::net
