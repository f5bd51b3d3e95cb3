#include "net/prefix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <thread>
#include <vector>

#include "net/asn.h"
#include "net/lpm_trie.h"
#include "stats/rng.h"
#include "traffic/service_catalog.h"

namespace nbv6::net {
namespace {

TEST(Prefix4, NormalizesHostBits) {
  Prefix4 p(IPv4Addr(192, 0, 2, 255), 24);
  EXPECT_EQ(p.address(), IPv4Addr(192, 0, 2, 0));
  EXPECT_EQ(p.length(), 24);
}

TEST(Prefix4, ParseAndFormat) {
  auto p = Prefix4::parse("10.0.0.0/8");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_string(), "10.0.0.0/8");
  EXPECT_EQ(Prefix4::parse("10.1.2.3/8")->to_string(), "10.0.0.0/8");
}

TEST(Prefix4, ParseRejects) {
  EXPECT_FALSE(Prefix4::parse("10.0.0.0"));
  EXPECT_FALSE(Prefix4::parse("10.0.0.0/33"));
  EXPECT_FALSE(Prefix4::parse("10.0.0.0/-1"));
  EXPECT_FALSE(Prefix4::parse("10.0.0.0/"));
  EXPECT_FALSE(Prefix4::parse("10.0.0/8"));
  EXPECT_FALSE(Prefix4::parse("10.0.0.0/8x"));
}

TEST(Prefix4, ContainsAddress) {
  Prefix4 p(IPv4Addr(192, 0, 2, 0), 24);
  EXPECT_TRUE(p.contains(IPv4Addr(192, 0, 2, 0)));
  EXPECT_TRUE(p.contains(IPv4Addr(192, 0, 2, 255)));
  EXPECT_FALSE(p.contains(IPv4Addr(192, 0, 3, 0)));
}

TEST(Prefix4, ContainsPrefix) {
  Prefix4 outer(IPv4Addr(10, 0, 0, 0), 8);
  Prefix4 inner(IPv4Addr(10, 5, 0, 0), 16);
  EXPECT_TRUE(outer.contains(inner));
  EXPECT_FALSE(inner.contains(outer));
  EXPECT_TRUE(outer.contains(outer));
}

TEST(Prefix4, ZeroLengthContainsEverything) {
  Prefix4 all(IPv4Addr(0), 0);
  EXPECT_TRUE(all.contains(IPv4Addr(255, 255, 255, 255)));
  EXPECT_EQ(all.size(), std::uint64_t{1} << 32);
}

TEST(Prefix4, HostRoute) {
  Prefix4 host(IPv4Addr(1, 2, 3, 4), 32);
  EXPECT_TRUE(host.contains(IPv4Addr(1, 2, 3, 4)));
  EXPECT_FALSE(host.contains(IPv4Addr(1, 2, 3, 5)));
  EXPECT_EQ(host.size(), 1u);
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

TEST(Prefix6, ParseAndFormat) {
  auto p = Prefix6::parse("2600::/12");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_string(), "2600::/12");
  EXPECT_FALSE(Prefix6::parse("2600::/129"));
  EXPECT_FALSE(Prefix6::parse("2600::"));
}

TEST(MaskToLength, EdgeLengths) {
  EXPECT_EQ(mask_to_length(IPv4Addr(0xffffffffu), 0).value(), 0u);
  EXPECT_EQ(mask_to_length(IPv4Addr(0xffffffffu), 32).value(), 0xffffffffu);
  EXPECT_EQ(mask_to_length(*IPv6Addr::parse("ffff::ffff"), 128),
            *IPv6Addr::parse("ffff::ffff"));
  EXPECT_EQ(mask_to_length(*IPv6Addr::parse("ffff::ffff"), 0),
            *IPv6Addr::parse("::"));
}

// ------------------------------------------------------------ LPM trie

TEST(LpmTrie, EmptyReturnsNothing) {
  LpmTrie4<int> trie;
  EXPECT_FALSE(trie.lookup(IPv4Addr(1, 2, 3, 4)).has_value());
  EXPECT_TRUE(trie.empty());
}

TEST(LpmTrie, DefaultRouteMatchesAll) {
  LpmTrie4<int> trie;
  trie.insert(Prefix4(IPv4Addr(0), 0), 42);
  EXPECT_EQ(trie.lookup(IPv4Addr(8, 8, 8, 8)).value(), 42);
  EXPECT_EQ(trie.lookup(IPv4Addr(0)).value(), 42);
}

TEST(LpmTrie, LongestMatchWins) {
  LpmTrie4<int> trie;
  trie.insert(Prefix4(IPv4Addr(10, 0, 0, 0), 8), 1);
  trie.insert(Prefix4(IPv4Addr(10, 1, 0, 0), 16), 2);
  trie.insert(Prefix4(IPv4Addr(10, 1, 2, 0), 24), 3);
  EXPECT_EQ(trie.lookup(IPv4Addr(10, 9, 9, 9)).value(), 1);
  EXPECT_EQ(trie.lookup(IPv4Addr(10, 1, 9, 9)).value(), 2);
  EXPECT_EQ(trie.lookup(IPv4Addr(10, 1, 2, 9)).value(), 3);
  EXPECT_FALSE(trie.lookup(IPv4Addr(11, 0, 0, 1)).has_value());
}

TEST(LpmTrie, InsertReplacesValue) {
  LpmTrie4<int> trie;
  Prefix4 p(IPv4Addr(10, 0, 0, 0), 8);
  trie.insert(p, 1);
  trie.insert(p, 2);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.lookup(IPv4Addr(10, 0, 0, 1)).value(), 2);
}

TEST(LpmTrie, ExactAt) {
  LpmTrie4<int> trie;
  trie.insert(Prefix4(IPv4Addr(10, 0, 0, 0), 8), 1);
  EXPECT_EQ(trie.at(Prefix4(IPv4Addr(10, 0, 0, 0), 8)).value(), 1);
  EXPECT_FALSE(trie.at(Prefix4(IPv4Addr(10, 0, 0, 0), 16)).has_value());
}

TEST(LpmTrie, HostRoutesV6) {
  LpmTrie6<std::string> trie;
  trie.insert(Prefix6(*IPv6Addr::parse("2001:db8::1"), 128), "host");
  trie.insert(Prefix6(*IPv6Addr::parse("2001:db8::"), 32), "net");
  EXPECT_EQ(trie.lookup(*IPv6Addr::parse("2001:db8::1")).value(), "host");
  EXPECT_EQ(trie.lookup(*IPv6Addr::parse("2001:db8::2")).value(), "net");
}

// Property: trie lookup == linear-scan oracle over random prefix sets.
class LpmOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpmOracleTest, MatchesLinearScanV4) {
  stats::Rng rng(GetParam());
  std::vector<std::pair<Prefix4, int>> prefixes;
  LpmTrie4<int> trie;
  for (int i = 0; i < 200; ++i) {
    auto addr = IPv4Addr(static_cast<std::uint32_t>(rng()));
    int len = static_cast<int>(rng.below(33));
    Prefix4 p(addr, len);
    // Skip duplicates so oracle values stay unambiguous.
    bool dup = false;
    for (auto& [q, _] : prefixes) dup |= (q == p);
    if (dup) continue;
    prefixes.emplace_back(p, i);
    trie.insert(p, i);
  }
  for (int t = 0; t < 500; ++t) {
    auto probe = IPv4Addr(static_cast<std::uint32_t>(rng()));
    // Oracle: most specific containing prefix.
    int best_len = -1;
    std::optional<int> best;
    for (const auto& [p, v] : prefixes) {
      if (p.contains(probe) && p.length() > best_len) {
        best_len = p.length();
        best = v;
      }
    }
    EXPECT_EQ(trie.lookup(probe), best) << probe.to_string();
  }
}

TEST_P(LpmOracleTest, MatchesLinearScanV6) {
  stats::Rng rng(GetParam() ^ 0xabcdef);
  std::vector<std::pair<Prefix6, int>> prefixes;
  LpmTrie6<int> trie;
  for (int i = 0; i < 120; ++i) {
    auto addr = IPv6Addr::from_halves(rng(), rng());
    int len = static_cast<int>(rng.below(129));
    Prefix6 p(addr, len);
    bool dup = false;
    for (auto& [q, _] : prefixes) dup |= (q == p);
    if (dup) continue;
    prefixes.emplace_back(p, i);
    trie.insert(p, i);
  }
  for (int t = 0; t < 300; ++t) {
    auto probe = IPv6Addr::from_halves(rng(), rng());
    int best_len = -1;
    std::optional<int> best;
    for (const auto& [p, v] : prefixes) {
      if (p.contains(probe) && p.length() > best_len) {
        best_len = p.length();
        best = v;
      }
    }
    EXPECT_EQ(trie.lookup(probe), best) << probe.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmOracleTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u));

TEST(LpmTrie, InterleavedInsertAndLookupStaysConsistent) {
  // Alternate insert and lookup phases: every lookup must see every
  // insert made before it.
  stats::Rng rng(2718);
  std::vector<std::pair<Prefix4, int>> prefixes;
  LpmTrie4<int> trie;
  auto oracle = [&](IPv4Addr probe) {
    int best_len = -1;
    std::optional<int> best;
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
      int v = round * 1000 + i;
      prefixes.emplace_back(p, v);
      trie.insert(p, v);
    }
    for (int t = 0; t < 100; ++t) {
      auto probe = IPv4Addr(static_cast<std::uint32_t>(rng()));
      EXPECT_EQ(trie.lookup(probe), oracle(probe)) << probe.to_string();
    }
  }
}

// A built table may be shared across threads, so its first lookups may
// come from several threads at once. They must be plain reads (TSan
// reports any write) and give the serial answers.
TEST(LpmTrie, ConcurrentConstLookups) {
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

TEST(LpmTrie, PathCompressionBoundsArena) {
  // 500 random host routes in a bit-per-node trie would need ~16000 nodes;
  // path compression keeps the arena within a small multiple of the
  // prefix count.
  stats::Rng rng(31415);
  LpmTrie4<int> trie;
  for (int i = 0; i < 500; ++i)
    trie.insert(Prefix4(IPv4Addr(static_cast<std::uint32_t>(rng())), 32), i);
  EXPECT_LE(trie.node_count(), 3 * trie.size() + 1);
}

}  // namespace
}  // namespace nbv6::net
