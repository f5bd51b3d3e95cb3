#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "dns/resolver.h"
#include "dns/zone.h"

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

}  // namespace
}  // namespace nbv6::dns
