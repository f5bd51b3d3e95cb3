#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "dns/resolver.h"
#include "dns/zone.h"
#include "reference_resolver.h"

namespace nbv6::dns {
namespace {

net::IPv4Addr v4(std::uint8_t d) { return net::IPv4Addr(192, 0, 2, d); }
net::IPv6Addr v6(std::uint64_t lo) {
  return net::IPv6Addr::from_halves(0x20010db8ull << 32, lo);
}

TEST(Canonicalize, LowercasesAndStripsDot) {
  EXPECT_EQ(canonicalize("WWW.Example.COM."), "www.example.com");
  EXPECT_EQ(canonicalize("a.b"), "a.b");
  EXPECT_EQ(canonicalize(""), "");
}

TEST(ZoneDb, AddAndReadBack) {
  ZoneDb zone;
  EXPECT_TRUE(zone.add_a("www.example.com", v4(1)));
  EXPECT_TRUE(zone.add_aaaa("www.example.com", v6(1)));
  const auto www = zone.lookup("www.example.com");
  ASSERT_TRUE(www.exists);
  EXPECT_EQ(www.a->size(), 1u);
  EXPECT_EQ(zone.lookup("WWW.EXAMPLE.COM").aaaa->size(), 1u);
  EXPECT_FALSE(zone.lookup("other.example.com").exists);
}

TEST(ZoneDb, DuplicateAddressesCollapse) {
  ZoneDb zone;
  zone.add_a("x.test", v4(1));
  zone.add_a("x.test", v4(1));
  zone.add_a("x.test", v4(2));
  EXPECT_EQ(zone.lookup("x.test").a->size(), 2u);
}

TEST(ZoneDb, CnameExclusivity) {
  ZoneDb zone;
  EXPECT_TRUE(zone.add_cname("alias.test", "target.test"));
  // RFC 1034: no other data beside a CNAME.
  EXPECT_FALSE(zone.add_a("alias.test", v4(1)));
  EXPECT_FALSE(zone.add_aaaa("alias.test", v6(1)));
  // And no CNAME on a name with addresses.
  zone.add_a("addr.test", v4(2));
  EXPECT_FALSE(zone.add_cname("addr.test", "elsewhere.test"));
  // Re-adding the same CNAME is fine; a different one is not.
  EXPECT_TRUE(zone.add_cname("alias.test", "target.test"));
  EXPECT_FALSE(zone.add_cname("alias.test", "other.test"));
}

TEST(Resolver, DirectAddressLookup) {
  ZoneDb zone;
  zone.add_a("host.test", v4(9));
  zone.add_aaaa("host.test", v6(9));
  Resolver r(zone);
  auto a = r.resolve_a("host.test");
  EXPECT_EQ(a.status, ResolveStatus::ok);
  ASSERT_EQ(a.addresses.size(), 1u);
  EXPECT_TRUE(a.addresses[0].is_v4());
  auto aaaa = r.resolve_aaaa("host.test");
  EXPECT_EQ(aaaa.status, ResolveStatus::ok);
  EXPECT_TRUE(aaaa.addresses[0].is_v6());
}

TEST(Resolver, NxdomainVsNodata) {
  ZoneDb zone;
  zone.add_a("v4only.test", v4(1));
  Resolver r(zone);
  EXPECT_EQ(r.resolve_aaaa("v4only.test").status, ResolveStatus::nodata);
  EXPECT_EQ(r.resolve_a("missing.test").status, ResolveStatus::nxdomain);
}

TEST(Resolver, FollowsCnameChain) {
  ZoneDb zone;
  zone.add_cname("www.site.test", "edge.cdn.test");
  zone.add_cname("edge.cdn.test", "pop.cdn.test");
  zone.add_a("pop.cdn.test", v4(5));
  Resolver r(zone);
  auto res = r.resolve_a("www.site.test");
  EXPECT_EQ(res.status, ResolveStatus::ok);
  ASSERT_EQ(res.chain.size(), 3u);
  EXPECT_EQ(res.chain.front(), "www.site.test");
  EXPECT_EQ(res.terminal(), "pop.cdn.test");
}

TEST(Resolver, CnameToNxdomain) {
  ZoneDb zone;
  zone.add_cname("www.site.test", "gone.test");
  Resolver r(zone);
  EXPECT_EQ(r.resolve_a("www.site.test").status, ResolveStatus::nxdomain);
}

TEST(Resolver, CnameToNodata) {
  ZoneDb zone;
  zone.add_cname("www.site.test", "v4only.test");
  zone.add_a("v4only.test", v4(1));
  Resolver r(zone);
  EXPECT_EQ(r.resolve_aaaa("www.site.test").status, ResolveStatus::nodata);
  EXPECT_EQ(r.resolve_a("www.site.test").status, ResolveStatus::ok);
}

TEST(Resolver, DetectsLoop) {
  ZoneDb zone;
  zone.add_cname("a.test", "b.test");
  zone.add_cname("b.test", "a.test");
  Resolver r(zone);
  EXPECT_EQ(r.resolve_a("a.test").status, ResolveStatus::cname_loop);
}

TEST(Resolver, SelfLoop) {
  ZoneDb zone;
  // A CNAME pointing at itself: add_cname normalizes but permits it
  // (it's a data error the resolver must survive).
  zone.add_cname("self.test", "self.test");
  Resolver r(zone);
  EXPECT_EQ(r.resolve_a("self.test").status, ResolveStatus::cname_loop);
}

TEST(Resolver, DualStackView) {
  ZoneDb zone;
  zone.add_a("dual.test", v4(1));
  zone.add_aaaa("dual.test", v6(1));
  zone.add_a("v4.test", v4(2));
  zone.add_aaaa("v6.test", v6(2));
  Resolver r(zone);

  auto dual = r.resolve_dual("dual.test");
  EXPECT_TRUE(dual.has_v4());
  EXPECT_TRUE(dual.has_v6());
  EXPECT_TRUE(dual.reachable());

  auto v4only = r.resolve_dual("v4.test");
  EXPECT_TRUE(v4only.has_v4());
  EXPECT_FALSE(v4only.has_v6());
  EXPECT_TRUE(v4only.reachable());

  auto v6only = r.resolve_dual("v6.test");
  EXPECT_FALSE(v6only.has_v4());
  EXPECT_TRUE(v6only.has_v6());

  auto missing = r.resolve_dual("nope.test");
  EXPECT_FALSE(missing.reachable());
}

TEST(Resolver, CaseInsensitiveQueries) {
  ZoneDb zone;
  zone.add_a("MiXeD.Test", v4(3));
  Resolver r(zone);
  EXPECT_EQ(r.resolve_a("mixed.test").status, ResolveStatus::ok);
  EXPECT_EQ(r.resolve_a("MIXED.TEST.").status, ResolveStatus::ok);
}

TEST(Canonical, DetectsCanonicalForm) {
  EXPECT_TRUE(is_canonical("www.example.com"));
  EXPECT_TRUE(is_canonical(""));
  EXPECT_TRUE(is_canonical("a-b.c0.net"));
  EXPECT_FALSE(is_canonical("WWW.example.com"));
  EXPECT_FALSE(is_canonical("example.com."));
  EXPECT_FALSE(is_canonical("."));
}

TEST(ZoneDb, HeterogeneousLookupMatchesCanonicalized) {
  // The allocation-free canonical fast path and the canonicalizing slow
  // path must answer identically for every spelling of a name.
  ZoneDb db;
  db.add_a("www.Example.COM.", net::IPv4Addr(192, 0, 2, 1));
  db.add_cname("alias.example.com", "www.example.com");
  for (const char* spelling :
       {"www.example.com", "WWW.EXAMPLE.COM", "www.example.com.",
        "wWw.eXample.Com."}) {
    const auto v = db.lookup(spelling);
    ASSERT_TRUE(v.exists) << spelling;
    ASSERT_EQ(v.a->size(), 1u) << spelling;
    EXPECT_EQ((*v.a)[0], net::IPv4Addr(192, 0, 2, 1));
  }
  EXPECT_EQ(db.lookup("ALIAS.example.com.").cname, "www.example.com");
  EXPECT_EQ(db.lookup("alias.example.com").cname, "www.example.com");
  EXPECT_TRUE(db.lookup("www.example.com").cname.empty());
  EXPECT_FALSE(db.lookup("missing.example.com").exists);
}

TEST(Resolver, MixedCaseChainResolvesAndReportsCanonicalChain) {
  ZoneDb db;
  db.add_cname("Shop.Example.com", "edge.CDN.net");
  db.add_a("edge.cdn.net", net::IPv4Addr(203, 0, 113, 9));
  Resolver r(db);
  auto res = r.resolve_a("SHOP.EXAMPLE.COM.");
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.chain.size(), 2u);
  EXPECT_EQ(res.chain[0], "shop.example.com");
  EXPECT_EQ(res.chain[1], "edge.cdn.net");
  EXPECT_EQ(res.terminal(), "edge.cdn.net");
}

TEST(ResolveStatusNames, ToString) {
  EXPECT_EQ(to_string(ResolveStatus::ok), "ok");
  EXPECT_EQ(to_string(ResolveStatus::nodata), "nodata");
  EXPECT_EQ(to_string(ResolveStatus::nxdomain), "nxdomain");
  EXPECT_EQ(to_string(ResolveStatus::cname_loop), "cname_loop");
}

// ----------------------------------------------- interned-store checking
// The open-addressing interning store must behave exactly like the
// ordered-map implementation it replaced: same records, same refusals.

TEST(ZoneDbIntern, RandomizedDifferentialAgainstOrderedMap) {
  // Reference model: the exact structure the pre-interning ZoneDb used.
  struct Ref {
    std::vector<net::IPv4Addr> a;
    std::string cname;
  };
  std::map<std::string, Ref> ref;
  ZoneDb zone;

  std::mt19937_64 rng(20260808);
  auto rand_name = [&rng] {
    std::string name = "h";
    name += std::to_string(rng() % 512);
    name += ".example";
    return name;
  };
  for (int step = 0; step < 4000; ++step) {
    const std::string name = rand_name();
    switch (rng() % 3) {
      case 0: {  // add A
        const auto addr = v4(static_cast<std::uint8_t>(rng() % 8));
        const bool ok = zone.add_a(name, addr);
        auto& r = ref[name];
        if (!r.cname.empty()) {
          EXPECT_FALSE(ok);
          if (ref[name].a.empty() && ref[name].cname.empty()) ref.erase(name);
        } else {
          EXPECT_TRUE(ok);
          if (std::find(r.a.begin(), r.a.end(), addr) == r.a.end())
            r.a.push_back(addr);
        }
        break;
      }
      case 1: {  // add CNAME
        const std::string target = rand_name();
        const bool ok = zone.add_cname(name, target);
        auto& r = ref[name];
        if (!r.a.empty() || (!r.cname.empty() && r.cname != target)) {
          EXPECT_FALSE(ok) << name;
          if (r.a.empty() && r.cname.empty()) ref.erase(name);
        } else {
          EXPECT_TRUE(ok) << name;
          r.cname = target;
        }
        break;
      }
      default: {  // look up mid-walk
        const auto v = zone.lookup(name);
        const auto it = ref.find(name);
        ASSERT_EQ(v.exists, it != ref.end()) << name;
        if (v.exists) {
          EXPECT_EQ(*v.a, it->second.a) << name;
          EXPECT_EQ(v.cname, it->second.cname) << name;
        }
        break;
      }
    }
  }

  // Full-state comparison at the end of the walk: equal name counts and
  // every reference name present means the name sets are equal.
  ASSERT_EQ(zone.name_count(), ref.size());
  for (const auto& [name, r] : ref) {
    const auto v = zone.lookup(name);
    ASSERT_TRUE(v.exists) << name;
    EXPECT_EQ(*v.a, r.a) << name;
    EXPECT_EQ(v.cname, r.cname) << name;
  }
}

TEST(ZoneDbIntern, LookupSurvivesTableGrowth) {
  ZoneDb zone;
  // Push far past several grow_slots() rebuilds.
  for (int i = 0; i < 5000; ++i)
    zone.add_a("host" + std::to_string(i) + ".example", v4(1));
  EXPECT_EQ(zone.name_count(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    const std::string name = "host" + std::to_string(i) + ".example";
    const auto v = zone.lookup(name);
    ASSERT_TRUE(v.exists) << name;
    EXPECT_EQ(v.a->size(), 1u) << name;
  }
  EXPECT_FALSE(zone.lookup("host5000.example").exists);
}

// ------------------------------------------------ walk against reference
// resolve() and resolve_dual() wrap one allocation-free chain walk; they
// must report what the per-family reference resolver reports — status,
// chain and addresses — on zones full of loops, dangling targets and chains
// at and past the hop limit.

void expect_same(const ResolveResult& got, const ResolveResult& want,
                 std::string_view query, std::string_view what) {
  EXPECT_EQ(got.status, want.status) << what << " " << query;
  EXPECT_EQ(got.chain, want.chain) << what << " " << query;
  EXPECT_EQ(got.addresses, want.addresses) << what << " " << query;
}

TEST(ResolverWalk, MatchesReferenceOnRandomZones) {
  constexpr int kMax = Resolver::kMaxChain;
  constexpr int kNames = 64;
  constexpr int kDangling = 8;
  std::mt19937_64 rng(20261017);
  int seen[4] = {};
  int limit_ok = 0, past_limit = 0, cycle_at_limit = 0;

  for (int z = 0; z < 40; ++z) {
    ZoneDb zone;
    std::vector<std::string> queries;
    auto name = [](std::string_view prefix, int i) {
      return std::string(prefix) + std::to_string(i) + ".test";
    };
    // Random names: CNAMEs to any name (itself and the never-defined
    // d-names included), address sets of either family, or both.
    for (int i = 0; i < kNames; ++i) {
      const std::string owner = name("n", i);
      queries.push_back(owner);
      const auto kind = rng() % 4;
      if (kind == 0) {
        const auto t = static_cast<int>(rng() % (kNames + kDangling));
        zone.add_cname(owner, t < kNames ? name("n", t) : name("d", t));
        continue;
      }
      for (int k = static_cast<int>(rng() % 3); k > 0 && kind != 2; --k)
        zone.add_a(owner, v4(static_cast<std::uint8_t>(rng() % 16)));
      for (int k = static_cast<int>(rng() % 3); k > 0 && kind != 1; --k)
        zone.add_aaaa(owner, v6(rng() % 16));
    }
    for (int i = kNames; i < kNames + kDangling; ++i)
      queries.push_back(name("d", i));
    // Straight chains of kMax and kMax + 1 hops to an address, and rings
    // of kMax + 1 and kMax + 2 names: the last hop inside the limit either
    // closes the cycle or runs past the limit.
    for (int hops : {kMax, kMax + 1}) {
      std::string prefix = "c";
      prefix += std::to_string(hops) + '-';
      for (int k = 0; k < hops; ++k)
        zone.add_cname(name(prefix, k), name(prefix, k + 1));
      zone.add_a(name(prefix, hops), v4(1));
      zone.add_aaaa(name(prefix, hops), v6(1));
      queries.push_back(name(prefix, 0));
      queries.push_back(name(prefix, 1));
    }
    for (int ring : {kMax + 1, kMax + 2}) {
      std::string prefix = "r";
      prefix += std::to_string(ring) + '-';
      for (int k = 0; k < ring; ++k)
        zone.add_cname(name(prefix, k), name(prefix, (k + 1) % ring));
      queries.push_back(name(prefix, 0));
    }
    // Other spellings of a few names.
    queries.push_back("N1.TEST");
    queries.push_back("n2.test.");
    queries.push_back("C16-0.Test.");

    const Resolver r(zone);
    for (const auto& q : queries) {
      const auto want_a = testutil::reference_resolve(zone, q, net::Family::v4);
      const auto want_aaaa =
          testutil::reference_resolve(zone, q, net::Family::v6);
      expect_same(r.resolve_a(q), want_a, q, "A");
      expect_same(r.resolve_aaaa(q), want_aaaa, q, "AAAA");
      const auto dual = r.resolve_dual(q);
      expect_same(dual.v4, want_a, q, "dual A");
      expect_same(dual.v6, want_aaaa, q, "dual AAAA");

      // The walk itself, on the canonical query.
      const std::string canon = canonicalize(q);
      const auto w = r.walk(canon);
      EXPECT_EQ(w.status(net::Family::v4), want_a.status) << q;
      EXPECT_EQ(w.status(net::Family::v6), want_aaaa.status) << q;
      EXPECT_EQ(w.has_a(), want_a.ok()) << q;
      EXPECT_EQ(w.has_aaaa(), want_aaaa.ok()) << q;

      ++seen[static_cast<int>(want_a.status)];
      const auto hops = static_cast<int>(want_a.chain.size()) - 1;
      limit_ok += want_a.ok() && hops == kMax;
      past_limit += hops == kMax + 1;
      cycle_at_limit +=
          want_a.status == ResolveStatus::cname_loop && hops == kMax;
    }
  }
  // Every outcome and both sides of the hop limit were compared.
  for (int n : seen) EXPECT_GT(n, 0);
  EXPECT_GT(limit_ok, 0);
  EXPECT_GT(past_limit, 0);
  EXPECT_GT(cycle_at_limit, 0);
}

// A name read back from the zone may be added to it: the store copies it
// before it grows. Short targets live inside their std::string, so growth
// would move their bytes out from under the view.
TEST(ZoneDb, AddsNamesViewedFromItsOwnStorage) {
  auto name = [](const char* prefix, int i) {
    std::string s = prefix;
    s += std::to_string(i);
    s += ".test";
    return s;
  };
  ZoneDb zone;
  for (int i = 0; i < 100; ++i) {
    const std::string owner = name("alias", i);
    zone.add_cname(owner, name("t", i));
    EXPECT_TRUE(zone.add_a(zone.lookup(owner).cname, v4(1))) << owner;
  }
  for (int i = 0; i < 100; ++i) {
    const std::string target = name("t", i);
    const auto v = zone.lookup(target);
    ASSERT_TRUE(v.exists) << target;
    EXPECT_EQ(v.a->size(), 1u) << target;
  }
}

TEST(ZoneDb, EverySpellingInternsOneName) {
  ZoneDb zone;
  EXPECT_TRUE(zone.add_a("Host.Test.", v4(1)));
  EXPECT_TRUE(zone.add_a("host.test", v4(1)));
  EXPECT_TRUE(zone.add_aaaa("HOST.TEST", v6(1)));
  EXPECT_TRUE(zone.add_cname("Alias.Test", "HOST.test."));
  EXPECT_TRUE(zone.add_cname("alias.test.", "host.test"));
  EXPECT_FALSE(zone.add_cname("ALIAS.TEST", "other.test"));
  EXPECT_EQ(zone.name_count(), 2u);
  EXPECT_EQ(zone.lookup("host.test").a->size(), 1u);
  EXPECT_EQ(zone.lookup("alias.test").cname, "host.test");
}

}  // namespace
}  // namespace nbv6::dns
