// A stub resolver over a ZoneDb.
//
// Follows CNAME chains (bounded, loop-safe), distinguishes NXDOMAIN (name
// owns nothing anywhere on the chain) from NODATA (name exists but lacks
// the queried type) — the distinction §4.2's loading-failure taxonomy
// needs — and reports the chain itself, which the cloud service
// identification of §5.3 mines for service suffixes.
//
// Every query is one chain walk (walk()) that allocates nothing: each hop
// is one zone probe, the names it passes are views into the zone (the first
// into the query), loop detection scans a fixed array of at most
// kMaxChain + 1 of them, and the terminal's records come back as pointers
// into the zone. The walk does not depend on the address family, so one
// walk answers both families. resolve() and resolve_dual() wrap it and
// build strings only for their own results; the crawler's per-epoch FQDN
// table reads walks directly.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/zone.h"
#include "net/ip.h"

namespace nbv6::dns {

enum class ResolveStatus : std::uint8_t {
  ok,          ///< at least one address of the requested family
  nodata,      ///< terminal name exists but has no record of this type
  nxdomain,    ///< some name on the chain does not exist at all
  cname_loop,  ///< CNAME chain exceeded the hop limit or looped
};

std::string_view to_string(ResolveStatus s);

struct ResolveResult {
  ResolveStatus status = ResolveStatus::nxdomain;
  /// Addresses of the requested family at the chain's terminal name.
  std::vector<net::IpAddr> addresses;
  /// Names traversed, starting with the canonicalized query name and
  /// ending with the terminal (non-CNAME) name.
  std::vector<std::string> chain;

  [[nodiscard]] bool ok() const { return status == ResolveStatus::ok; }
  /// Terminal name of the chain (canonical), or empty if none.
  [[nodiscard]] std::string terminal() const {
    return chain.empty() ? std::string{} : chain.back();
  }
};

class Resolver {
 public:
  explicit Resolver(const ZoneDb& db) : db_(&db) {}

  /// Maximum CNAME hops before declaring a loop (mirrors common resolver
  /// limits).
  static constexpr int kMaxChain = 16;

  /// One CNAME-chain walk. Views and pointers reference the zone's storage,
  /// except `names[0]`, which is the query itself.
  struct Walk {
    /// ok when the chain reached a terminal name (the family then decides
    /// between ok and nodata, see status()), else nxdomain or cname_loop.
    ResolveStatus outcome = ResolveStatus::nxdomain;
    /// Names looked up, in order, starting with the query. The last one is
    /// the terminal when `outcome` is ok, the missing name when nxdomain.
    std::array<std::string_view, kMaxChain + 1> names{};
    std::uint8_t length = 0;
    /// When the chain ran past the hop limit: the CNAME target that would
    /// have been hop kMaxChain + 1. Empty otherwise, a revisited name
    /// included.
    std::string_view past_limit;
    /// The terminal's records; null unless `outcome` is ok.
    const std::vector<net::IPv4Addr>* a = nullptr;
    const std::vector<net::IPv6Addr>* aaaa = nullptr;

    [[nodiscard]] std::span<const std::string_view> chain() const {
      return {names.data(), length};
    }
    [[nodiscard]] bool has_a() const { return a != nullptr && !a->empty(); }
    [[nodiscard]] bool has_aaaa() const {
      return aaaa != nullptr && !aaaa->empty();
    }
    /// The status a query for `family` reports.
    [[nodiscard]] ResolveStatus status(net::Family family) const;
  };

  /// Walk the CNAME chain from `name`, which must be canonical (see
  /// dns::is_canonical) and outlive the walk.
  [[nodiscard]] Walk walk(std::string_view name) const;

  /// Resolve `name` for the requested family, following CNAMEs.
  [[nodiscard]] ResolveResult resolve(std::string_view name,
                                      net::Family family) const;

  /// Convenience wrappers.
  [[nodiscard]] ResolveResult resolve_a(std::string_view name) const {
    return resolve(name, net::Family::v4);
  }
  [[nodiscard]] ResolveResult resolve_aaaa(std::string_view name) const {
    return resolve(name, net::Family::v6);
  }

  /// Dual-stack view of one name, the unit of §4's classification.
  struct DualStack {
    ResolveResult v4;
    ResolveResult v6;
    [[nodiscard]] bool has_v4() const { return v4.ok(); }
    [[nodiscard]] bool has_v6() const { return v6.ok(); }
    /// Reachable over at least one family.
    [[nodiscard]] bool reachable() const { return has_v4() || has_v6(); }
  };
  /// Both families from one walk.
  [[nodiscard]] DualStack resolve_dual(std::string_view name) const;

 private:
  const ZoneDb* db_;
};

}  // namespace nbv6::dns
