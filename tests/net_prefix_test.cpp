#include "net/prefix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <thread>
#include <vector>

#include "net/asn.h"
#include "stats/rng.h"
#include "traffic/service_catalog.h"

namespace nbv6::net {
namespace {

TEST(Prefix4, NormalizesHostBits) {
  Prefix4 p(IPv4Addr(192, 0, 2, 255), 24);
  EXPECT_EQ(p.address(), IPv4Addr(192, 0, 2, 0));
  EXPECT_EQ(p.length(), 24);
}

TEST(Prefix4, ContainsAddress) {
  Prefix4 p(IPv4Addr(192, 0, 2, 0), 24);
  EXPECT_TRUE(p.contains(IPv4Addr(192, 0, 2, 0)));
  EXPECT_TRUE(p.contains(IPv4Addr(192, 0, 2, 255)));
  EXPECT_FALSE(p.contains(IPv4Addr(192, 0, 3, 0)));
}

TEST(Prefix4, ZeroLengthContainsEverything) {
  Prefix4 all(IPv4Addr(0), 0);
  EXPECT_TRUE(all.contains(IPv4Addr(255, 255, 255, 255)));
}

TEST(Prefix4, HostRoute) {
  Prefix4 host(IPv4Addr(1, 2, 3, 4), 32);
  EXPECT_TRUE(host.contains(IPv4Addr(1, 2, 3, 4)));
  EXPECT_FALSE(host.contains(IPv4Addr(1, 2, 3, 5)));
}

TEST(Prefix6, NormalizesHostBits) {
  Prefix6 p(*IPv6Addr::parse("2001:db8::ffff"), 32);
  EXPECT_EQ(p.address(), *IPv6Addr::parse("2001:db8::"));
}

TEST(Prefix6, NonByteAlignedLength) {
  Prefix6 p(*IPv6Addr::parse("2001:db8:80ff::"), 33);
  // Bit 33 onward zeroed: group 2 keeps only its top bit.
  EXPECT_EQ(p.address(), *IPv6Addr::parse("2001:db8:8000::"));
  EXPECT_TRUE(p.contains(*IPv6Addr::parse("2001:db8:80ff::1")));
  EXPECT_FALSE(p.contains(*IPv6Addr::parse("2001:db8:7fff::")));
}

TEST(MaskToLength, EdgeLengths) {
  EXPECT_EQ(mask_to_length(IPv4Addr(0xffffffffu), 0).value(), 0u);
  EXPECT_EQ(mask_to_length(IPv4Addr(0xffffffffu), 32).value(), 0xffffffffu);
  EXPECT_EQ(mask_to_length(*IPv6Addr::parse("ffff::ffff"), 128),
            *IPv6Addr::parse("ffff::ffff"));
  EXPECT_EQ(mask_to_length(*IPv6Addr::parse("ffff::ffff"), 0),
            *IPv6Addr::parse("::"));
}

// ------------------------------------------------------------ AS map

TEST(AsMap, EmptyReturnsNothing) {
  AsMap map;
  EXPECT_FALSE(map.lookup(IPv4Addr(1, 2, 3, 4)).has_value());
  EXPECT_FALSE(map.lookup(*IPv6Addr::parse("2001:db8::1")).has_value());
}

TEST(AsMap, DefaultRouteMatchesAll) {
  AsMap map;
  map.announce(Prefix4(IPv4Addr(0), 0), 42);
  map.announce(Prefix6(IPv6Addr(), 0), 43);
  EXPECT_EQ(map.lookup(IPv4Addr(8, 8, 8, 8)).value(), 42u);
  EXPECT_EQ(map.lookup(IPv4Addr(0)).value(), 42u);
  EXPECT_EQ(map.lookup(*IPv6Addr::parse("2001:db8::1")).value(), 43u);
}

TEST(AsMap, LongestMatchWins) {
  AsMap map;
  map.announce(Prefix4(IPv4Addr(10, 0, 0, 0), 8), 1);
  map.announce(Prefix4(IPv4Addr(10, 1, 0, 0), 16), 2);
  map.announce(Prefix4(IPv4Addr(10, 1, 2, 0), 24), 3);
  EXPECT_EQ(map.lookup(IPv4Addr(10, 9, 9, 9)).value(), 1u);
  EXPECT_EQ(map.lookup(IPv4Addr(10, 1, 9, 9)).value(), 2u);
  EXPECT_EQ(map.lookup(IPv4Addr(10, 1, 2, 9)).value(), 3u);
  EXPECT_FALSE(map.lookup(IPv4Addr(11, 0, 0, 1)).has_value());
}

TEST(AsMap, InsertReplacesValue) {
  AsMap map;
  Prefix4 p(IPv4Addr(10, 0, 0, 0), 8);
  map.announce(p, 1);
  map.announce(p, 2);
  // The same prefix spelled with host bits set is the same announcement.
  map.announce(Prefix4(IPv4Addr(10, 9, 9, 9), 8), 3);
  EXPECT_EQ(map.lookup(IPv4Addr(10, 0, 0, 1)).value(), 3u);
}

TEST(AsMap, HostRoutesV6) {
  AsMap map;
  map.announce(Prefix6(*IPv6Addr::parse("2001:db8::1"), 128), 1);
  map.announce(Prefix6(*IPv6Addr::parse("2001:db8::"), 32), 2);
  EXPECT_EQ(map.lookup(*IPv6Addr::parse("2001:db8::1")).value(), 1u);
  EXPECT_EQ(map.lookup(*IPv6Addr::parse("2001:db8::2")).value(), 2u);
  EXPECT_FALSE(map.lookup(*IPv6Addr::parse("2001:db9::1")).has_value());
}

// Property: AsMap lookup == linear-scan oracle over random prefix sets.
class LpmOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpmOracleTest, MatchesLinearScanV4) {
  stats::Rng rng(GetParam());
  std::vector<std::pair<Prefix4, Asn>> prefixes;
  AsMap map;
  for (int i = 0; i < 200; ++i) {
    auto addr = IPv4Addr(static_cast<std::uint32_t>(rng()));
    int len = static_cast<int>(rng.below(33));
    Prefix4 p(addr, len);
    // Skip duplicates so oracle values stay unambiguous.
    bool dup = false;
    for (auto& [q, _] : prefixes) dup |= (q == p);
    if (dup) continue;
    prefixes.emplace_back(p, static_cast<Asn>(i));
    map.announce(p, static_cast<Asn>(i));
  }
  for (int t = 0; t < 500; ++t) {
    auto probe = IPv4Addr(static_cast<std::uint32_t>(rng()));
    // Oracle: most specific containing prefix.
    int best_len = -1;
    std::optional<Asn> best;
    for (const auto& [p, v] : prefixes) {
      if (p.contains(probe) && p.length() > best_len) {
        best_len = p.length();
        best = v;
      }
    }
    EXPECT_EQ(map.lookup(probe), best) << probe.to_string();
  }
}

TEST_P(LpmOracleTest, MatchesLinearScanV6) {
  stats::Rng rng(GetParam() ^ 0xabcdef);
  std::vector<std::pair<Prefix6, Asn>> prefixes;
  AsMap map;
  for (int i = 0; i < 120; ++i) {
    auto addr = IPv6Addr::from_halves(rng(), rng());
    int len = static_cast<int>(rng.below(129));
    Prefix6 p(addr, len);
    bool dup = false;
    for (auto& [q, _] : prefixes) dup |= (q == p);
    if (dup) continue;
    prefixes.emplace_back(p, static_cast<Asn>(i));
    map.announce(p, static_cast<Asn>(i));
  }
  for (int t = 0; t < 300; ++t) {
    auto probe = IPv6Addr::from_halves(rng(), rng());
    int best_len = -1;
    std::optional<Asn> best;
    for (const auto& [p, v] : prefixes) {
      if (p.contains(probe) && p.length() > best_len) {
        best_len = p.length();
        best = v;
      }
    }
    EXPECT_EQ(map.lookup(probe), best) << probe.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmOracleTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u));

TEST(AsMap, InterleavedInsertAndLookupStaysConsistent) {
  // Alternate insert and lookup phases: every lookup must see every
  // insert made before it.
  stats::Rng rng(2718);
  std::vector<std::pair<Prefix4, Asn>> prefixes;
  AsMap map;
  auto oracle = [&](IPv4Addr probe) {
    int best_len = -1;
    std::optional<Asn> best;
    for (const auto& [p, v] : prefixes)
      if (p.contains(probe) && p.length() > best_len) {
        best_len = p.length();
        best = v;
      }
    return best;
  };
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 60; ++i) {
      Prefix4 p(IPv4Addr(static_cast<std::uint32_t>(rng())),
                static_cast<int>(rng.below(33)));
      bool dup = false;
      for (auto& [q, _] : prefixes) dup |= (q == p);
      if (dup) continue;
      const auto v = static_cast<Asn>(round * 1000 + i);
      prefixes.emplace_back(p, v);
      map.announce(p, v);
    }
    for (int t = 0; t < 100; ++t) {
      auto probe = IPv4Addr(static_cast<std::uint32_t>(rng()));
      EXPECT_EQ(map.lookup(probe), oracle(probe)) << probe.to_string();
    }
  }
}

// A built table may be shared across threads, so its first lookups may
// come from several threads at once. They must be plain reads (TSan
// reports any write) and give the serial answers.
TEST(AsMap, ConcurrentConstLookups) {
  stats::Rng rng(4242);
  AsMap fresh;
  std::vector<IpAddr> probes;
  for (int i = 0; i < 200; ++i) {
    const Prefix4 p4(IPv4Addr(static_cast<std::uint32_t>(rng())),
                     static_cast<int>(8 + rng.below(17)));
    const Prefix6 p6(IPv6Addr::from_halves(rng(), rng()),
                     static_cast<int>(16 + rng.below(49)));
    fresh.announce(p4, static_cast<Asn>(i));
    fresh.announce(p6, static_cast<Asn>(1000 + i));
    probes.emplace_back(p4.address());
    probes.emplace_back(p6.address());
  }
  const auto catalog = traffic::build_paper_catalog();
  for (size_t s = 0; s < catalog.size(); ++s) {
    const auto e = catalog.endpoint(s, 1);
    probes.emplace_back(e.v4);
    if (e.v6) probes.emplace_back(*e.v6);
  }
  for (int i = 0; i < 200; ++i) {
    probes.emplace_back(IPv4Addr(static_cast<std::uint32_t>(rng())));
    probes.emplace_back(IPv6Addr::from_halves(rng(), rng()));
  }

  const AsMap* const maps[] = {&fresh, &catalog.as_map()};
  for (const AsMap* map : maps) {
    constexpr int kThreads = 4;
    std::latch start(kThreads);
    std::vector<std::vector<std::optional<Asn>>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        for (const auto& a : probes) got[t].push_back(map->lookup(a));
      });
    }
    for (auto& th : threads) th.join();
    std::vector<std::optional<Asn>> serial;
    for (const auto& a : probes) serial.push_back(map->lookup(a));
    // Each table answers at least one probe per catalog service.
    EXPECT_GE(std::count_if(serial.begin(), serial.end(),
                            [](const auto& asn) { return asn.has_value(); }),
              static_cast<std::ptrdiff_t>(catalog.size()));
    for (const auto& g : got) EXPECT_EQ(g, serial);
  }
}

}  // namespace
}  // namespace nbv6::net
