// Autonomous-system attribution: a BGP-like table mapping address prefixes
// to origin AS numbers.
//
// Used twice in the reproduction, exactly as in the paper: §3.4 maps flow
// destination addresses to service ASes ("from BGP routing tables"), and
// §5.1 maps resource addresses to cloud providers. Longest-prefix match
// over both families via the LPM tries, one lookup per address. Lookups
// and name() are const reads, so a built map is safe to share across
// threads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "net/ip.h"
#include "net/lpm_trie.h"
#include "net/prefix.h"

namespace nbv6::net {

using Asn = std::uint32_t;

/// Routing-table view: prefix announcements with origin ASNs, plus an
/// AS-number → AS-name registry (the "AS name" column of Figure 4).
class AsMap {
 public:
  void announce(const Prefix4& p, Asn asn) { v4_.insert(p, asn); }
  void announce(const Prefix6& p, Asn asn) { v6_.insert(p, asn); }

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
  LpmTrie4<Asn> v4_;
  LpmTrie6<Asn> v6_;
  std::unordered_map<Asn, std::string> names_;
};

}  // namespace nbv6::net
