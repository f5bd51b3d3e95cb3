// Autonomous-system attribution: a BGP-like table mapping address prefixes
// to origin AS numbers.
//
// Used twice in the reproduction, exactly as in the paper: §3.4 maps flow
// destination addresses to service ASes ("from BGP routing tables"), and
// §5.1 maps resource addresses to cloud providers. Longest-prefix match
// over both families via the LPM tries.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

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

  /// Batch attribution: partition by family and run each family through
  /// its trie's batch-lookup path. `out[i]` corresponds to `addrs[i]`.
  void lookup_batch(std::span<const IpAddr> addrs,
                    std::span<std::optional<Asn>> out) const {
    std::vector<IPv4Addr> a4;
    std::vector<IPv6Addr> a6;
    std::vector<size_t> i4, i6;
    for (size_t i = 0; i < addrs.size(); ++i) {
      if (addrs[i].is_v4()) {
        a4.push_back(addrs[i].v4());
        i4.push_back(i);
      } else {
        a6.push_back(addrs[i].v6());
        i6.push_back(i);
      }
    }
    std::vector<std::optional<Asn>> r4(a4.size()), r6(a6.size());
    v4_.lookup_batch(a4, r4);
    v6_.lookup_batch(a6, r6);
    for (size_t k = 0; k < i4.size(); ++k) out[i4[k]] = r4[k];
    for (size_t k = 0; k < i6.size(); ++k) out[i6[k]] = r6[k];
  }

  [[nodiscard]] std::vector<std::optional<Asn>> lookup_batch(
      std::span<const IpAddr> addrs) const {
    std::vector<std::optional<Asn>> out(addrs.size());
    lookup_batch(addrs, out);
    return out;
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
