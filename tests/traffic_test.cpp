#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/client_analysis.h"
#include "engine/flat_conntrack.h"
#include "flowmon/monitor.h"
#include "traffic/generator.h"
#include "traffic/happy_eyeballs.h"
#include "traffic/residence.h"
#include "traffic/service_catalog.h"

namespace nbv6::traffic {
namespace {

// ------------------------------------------------------------ catalog

TEST(ServiceCatalog, PaperCatalogHasTheNamedServices) {
  auto cat = build_paper_catalog();
  EXPECT_GE(cat.size(), 35u);
  // Leaders and laggards the paper calls out.
  ASSERT_TRUE(cat.find_by_asn(32590));  // Valve
  ASSERT_TRUE(cat.find_by_asn(30103));  // Zoom
  ASSERT_TRUE(cat.find_by_asn(46489));  // Twitch
  ASSERT_TRUE(cat.find_by_asn(47));     // USC
  EXPECT_EQ(cat.at(*cat.find_by_asn(30103)).v6_readiness, 0.0);
  EXPECT_EQ(cat.at(*cat.find_by_asn(46489)).v6_readiness, 0.0);
  EXPECT_GT(cat.at(*cat.find_by_asn(32590)).v6_readiness, 0.8);
  EXPECT_GT(cat.at(*cat.find_by_asn(15169)).v6_readiness, 0.9);  // Google
}

TEST(ServiceCatalog, V4OnlyServicesHaveNoV6Prefix) {
  auto cat = build_paper_catalog();
  for (const auto& s : cat.services()) {
    if (s.v6_readiness == 0.0) {
      EXPECT_FALSE(s.prefix6.has_value()) << s.name;
    } else {
      EXPECT_TRUE(s.prefix6.has_value()) << s.name;
    }
  }
}

TEST(ServiceCatalog, EndpointDualStackShareMatchesReadiness) {
  auto cat = build_paper_catalog();
  for (size_t i = 0; i < cat.size(); ++i) {
    int dual = 0;
    for (int j = 0; j < ServiceCatalog::kEndpointsPerService; ++j)
      if (cat.endpoint(i, j).v6) ++dual;
    double expected = cat.at(i).v6_readiness;
    double got = static_cast<double>(dual) / ServiceCatalog::kEndpointsPerService;
    EXPECT_NEAR(got, expected, 0.55 / ServiceCatalog::kEndpointsPerService + 1e-9)
        << cat.at(i).name;
  }
}

TEST(ServiceCatalog, EndpointsLiveInsideServicePrefixes) {
  auto cat = build_paper_catalog();
  for (size_t i = 0; i < cat.size(); ++i) {
    const auto& s = cat.at(i);
    for (int j = 0; j < ServiceCatalog::kEndpointsPerService; ++j) {
      auto e = cat.endpoint(i, j);
      EXPECT_TRUE(s.prefix4.contains(e.v4)) << s.name;
      if (e.v6) {
        EXPECT_TRUE(s.prefix6->contains(*e.v6)) << s.name;
      }
    }
  }
}

TEST(ServiceCatalog, BgpAttributionRoundTrips) {
  auto cat = build_paper_catalog();
  for (size_t i = 0; i < cat.size(); ++i) {
    auto e = cat.endpoint(i, 3);
    auto asn = cat.as_map().lookup(net::IpAddr{e.v4});
    ASSERT_TRUE(asn.has_value());
    EXPECT_EQ(*asn, cat.at(i).asn);
    if (e.v6) {
      auto asn6 = cat.as_map().lookup(net::IpAddr{*e.v6});
      ASSERT_TRUE(asn6.has_value());
      EXPECT_EQ(*asn6, cat.at(i).asn);
    }
  }
}

TEST(ServiceCatalog, ReverseDnsMapsEndpointsToDomains) {
  auto cat = build_paper_catalog();
  auto idx = cat.find_by_asn(2906).value();  // Netflix AS-SSI
  auto e = cat.endpoint(idx, 0);
  EXPECT_EQ(cat.reverse_dns(net::IpAddr{e.v4}), "nflxvideo.net");
  EXPECT_EQ(cat.reverse_dns(net::IpAddr{net::IPv4Addr(8, 8, 8, 8)}), "");
}

TEST(ServiceCatalog, CategoriesCoverAllFive) {
  auto cat = build_paper_catalog();
  std::set<ServiceCategory> seen;
  for (const auto& s : cat.services()) seen.insert(s.category);
  EXPECT_EQ(seen.size(), 5u);
}

// ------------------------------------------------------------ happy eyeballs

TEST(HappyEyeballs, V6PreferredWhenBothWork) {
  stats::Rng rng(1);
  HappyEyeballsConfig cfg;
  cfg.dup_flow_prob = 0.0;
  auto d = happy_eyeballs_race(true, true, true, 20, 20, rng, cfg);
  EXPECT_FALSE(d.failed);
  EXPECT_EQ(d.used, net::Family::v6);
  EXPECT_FALSE(d.opened_both);
}

TEST(HappyEyeballs, V4WinsOnlyWithBigRttGap) {
  stats::Rng rng(2);
  HappyEyeballsConfig cfg;
  // v6 slower but within the 250ms head start: v6 still wins.
  auto d1 = happy_eyeballs_race(true, true, true, 20, 200, rng, cfg);
  EXPECT_EQ(d1.used, net::Family::v6);
  // v6 slower than v4 + head start: v4 wins, both flows recorded.
  auto d2 = happy_eyeballs_race(true, true, true, 20, 400, rng, cfg);
  EXPECT_EQ(d2.used, net::Family::v4);
  EXPECT_TRUE(d2.opened_both);
}

TEST(HappyEyeballs, BrokenV6FallsBack) {
  stats::Rng rng(3);
  auto d = happy_eyeballs_race(true, true, false, 20, 20, rng);
  EXPECT_EQ(d.used, net::Family::v4);
  EXPECT_TRUE(d.opened_both);  // the dead v6 attempt still left a flow
}

TEST(HappyEyeballs, V4OnlyEndpoint) {
  stats::Rng rng(4);
  auto d = happy_eyeballs_race(true, false, true, 20, 20, rng);
  EXPECT_EQ(d.used, net::Family::v4);
  EXPECT_FALSE(d.opened_both);
}

TEST(HappyEyeballs, V6OnlyEndpoint) {
  stats::Rng rng(5);
  auto d = happy_eyeballs_race(false, true, true, 20, 20, rng);
  EXPECT_EQ(d.used, net::Family::v6);
}

TEST(HappyEyeballs, TotalFailure) {
  stats::Rng rng(6);
  auto d = happy_eyeballs_race(false, true, false, 20, 20, rng);
  EXPECT_TRUE(d.failed);
  auto d2 = happy_eyeballs_race(false, false, true, 20, 20, rng);
  EXPECT_TRUE(d2.failed);
}

TEST(HappyEyeballs, DupFlowProbabilityApplies) {
  stats::Rng rng(7);
  HappyEyeballsConfig cfg;
  cfg.dup_flow_prob = 1.0;
  auto d = happy_eyeballs_race(true, true, true, 20, 20, rng, cfg);
  EXPECT_EQ(d.used, net::Family::v6);
  EXPECT_TRUE(d.opened_both);
}

// ------------------------------------------------------------ residences

TEST(Residences, FiveConfiguredLikeThePaper) {
  auto rs = paper_residences();
  ASSERT_EQ(rs.size(), 5u);
  EXPECT_EQ(rs[0].name, "A");
  EXPECT_EQ(rs[4].name, "E");
  // C has broken device IPv6; D and E have partial visibility.
  EXPECT_LT(rs[2].device_v6_ok_frac, 0.6);
  EXPECT_LT(rs[3].visibility, 1.0);
  EXPECT_LT(rs[4].visibility, 1.0);
  // A has the spring-break absence scripted.
  EXPECT_FALSE(rs[0].away_day_ranges.empty());
}

TEST(Generator, PresenceIsDiurnal) {
  auto cat = build_paper_catalog();
  auto cfg = paper_residences()[0];
  ResidenceSimulator sim(cat, cfg);
  // Evening peak beats 3am; away days are fully quiet.
  EXPECT_GT(sim.presence(10, 21), sim.presence(10, 3) * 3);
  int away_day = cfg.away_day_ranges[0].first;
  EXPECT_EQ(sim.presence(away_day, 21), 0.0);
}

TEST(Generator, WorkdayDipOnWeekdaysOnly) {
  auto cat = build_paper_catalog();
  ResidenceConfig cfg;
  cfg.name = "T";
  cfg.start_weekday = 0;  // day 0 = Monday
  ResidenceSimulator sim(cat, cfg);
  EXPECT_LT(sim.presence(0, 13), sim.presence(5, 13));  // Mon < Sat at 1pm
}

TEST(Generator, ShortRunProducesSaneTraffic) {
  auto cat = build_paper_catalog();
  ResidenceConfig cfg = paper_residences()[0];
  cfg.days = 7;
  engine::FlatConntrack table;
  flowmon::FlowMonitor mon;
  mon.attach(table);
  ResidenceSimulator sim(cat, cfg);
  auto stats = sim.run(table);

  EXPECT_GT(stats.sessions, 100u);
  EXPECT_GT(stats.flows, stats.sessions);  // sessions have >= 1 flow
  EXPECT_EQ(table.live_count(), 0u);       // everything flushed

  const auto& ext = mon.totals(flowmon::Scope::external);
  EXPECT_GT(ext.total_bytes(), 0u);
  EXPECT_GT(ext.v6.bytes, 0u);  // dual-stack residence sends some v6
  EXPECT_GT(ext.v4.bytes, 0u);  // and some services are v4-only

  const auto& in = mon.totals(flowmon::Scope::internal);
  EXPECT_GT(in.total_flows(), 0u);
}

TEST(Generator, DeterministicBySeed) {
  auto cat = build_paper_catalog();
  ResidenceConfig cfg = paper_residences()[1];
  cfg.days = 3;

  auto run_once = [&] {
    engine::FlatConntrack table;
    flowmon::FlowMonitor mon;
    mon.attach(table);
    ResidenceSimulator sim(cat, cfg);
    sim.run(table);
    return mon.totals(flowmon::Scope::external).total_bytes();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Generator, BrokenDeviceV6SuppressesV6Share) {
  auto cat = build_paper_catalog();
  ResidenceConfig good;
  good.name = "G";
  good.days = 14;
  good.device_v6_ok_frac = 1.0;
  good.seed = 99;
  ResidenceConfig broken = good;
  // A move, not assign(const char*): GCC 12 reports a false -Wrestrict
  // on the latter here under -Werror.
  broken.name = std::string("B");
  broken.device_v6_ok_frac = 0.2;

  auto fraction = [&](const ResidenceConfig& cfg) {
    engine::FlatConntrack table;
    flowmon::FlowMonitor mon;
    mon.attach(table);
    ResidenceSimulator sim(cat, cfg);
    sim.run(table);
    return mon.totals(flowmon::Scope::external).v6_byte_fraction();
  };
  EXPECT_GT(fraction(good), fraction(broken) + 0.15);
}

TEST(Generator, VisibilityScalesVolumeDown) {
  auto cat = build_paper_catalog();
  ResidenceConfig full;
  full.name = "F";
  full.days = 7;
  full.seed = 7;
  ResidenceConfig partial = full;
  partial.visibility = 0.3;

  auto volume = [&](const ResidenceConfig& cfg) {
    engine::FlatConntrack table;
    flowmon::FlowMonitor mon;
    mon.attach(table);
    ResidenceSimulator sim(cat, cfg);
    sim.run(table);
    return mon.totals(flowmon::Scope::external).total_bytes();
  };
  EXPECT_GT(volume(full), volume(partial));
}

TEST(Generator, AwayPeriodKillsInteractiveTraffic) {
  auto cat = build_paper_catalog();
  ResidenceConfig cfg;
  cfg.name = "A";
  cfg.days = 4;
  cfg.away_day_ranges = {{1, 2}};
  cfg.seed = 5;
  engine::FlatConntrack table;
  flowmon::FlowMonitor mon;
  mon.attach(table);
  ResidenceSimulator sim(cat, cfg);
  sim.run(table);

  const auto& daily = mon.daily(flowmon::Scope::external);
  auto bytes_on = [&](size_t day) -> std::uint64_t {
    return day < daily.size() ? daily[day].total_bytes() : 0;
  };
  // Away days still see background chatter but far less than present days.
  EXPECT_LT(bytes_on(1) + bytes_on(2), (bytes_on(0) + bytes_on(3)) / 2);
}

// ------------------------------------------------- client analysis (core)

TEST(ClientAnalysis, AsUsageAttributesTraffic) {
  auto cat = build_paper_catalog();
  ResidenceConfig cfg = paper_residences()[0];
  cfg.days = 10;
  engine::FlatConntrack table;
  flowmon::FlowMonitor mon;
  mon.attach(table);
  ResidenceSimulator sim(cat, cfg);
  sim.run(table);

  auto usage = core::as_usage(mon, cat.as_map(), 0.0);
  EXPECT_GT(usage.size(), 10u);
  std::uint64_t total = 0;
  for (const auto& u : usage) {
    total += u.bytes;
    EXPECT_GE(u.v6_fraction(), 0.0);
    EXPECT_LE(u.v6_fraction(), 1.0);
    EXPECT_FALSE(u.as_name.empty());
  }
  // All external bytes land in some catalogued AS.
  EXPECT_EQ(total, mon.totals(flowmon::Scope::external).total_bytes());
}

TEST(ClientAnalysis, AsUsageTakesLongestMatch) {
  // Nested announcements, each to its own AS: a destination inside the
  // more specific prefix belongs to that prefix's AS, not the covering one.
  net::AsMap as_map;
  as_map.announce(net::Prefix4(net::IPv4Addr(10, 1, 0, 0), 16), 100);
  as_map.announce(net::Prefix4(net::IPv4Addr(10, 1, 2, 0), 24), 200);
  const auto v6 = [](std::uint64_t high) {
    return net::IPv6Addr::from_halves(high, 1);
  };
  as_map.announce(net::Prefix6(v6(0x20010db800000000ull), 32), 300);
  as_map.announce(net::Prefix6(v6(0x20010db800050000ull), 48), 400);

  flowmon::FlowMonitor mon;
  flowmon::MonitorSink sink(mon, mon);
  const std::vector<std::pair<net::IpAddr, std::uint64_t>> dests = {
      {net::IPv4Addr(10, 1, 2, 9), 1000},  // /24 -> AS 200
      {net::IPv4Addr(10, 1, 7, 9), 2000},  // /16 only -> AS 100
      {v6(0x20010db800050001ull), 3000},   // /48 -> AS 400
      {v6(0x20010db800060000ull), 4000}};  // /32 only -> AS 300
  std::uint16_t port = 1000;
  for (const auto& [dst, bytes] : dests) {
    net::FlowKey k;
    k.dst = dst;
    k.src = dst.is_v6() ? net::IpAddr(v6(0x2600880000000000ull))
                        : net::IpAddr(net::IPv4Addr(192, 168, 1, 2));
    k.src_port = ++port;
    sink.add({.key = k, .start = 0, .end = 1, .bytes_in = bytes});
  }

  std::map<net::Asn, std::pair<std::uint64_t, std::uint64_t>> got;
  for (const auto& u : core::as_usage(mon, as_map, 0.0))
    got[u.asn] = {u.bytes, u.v6_bytes};
  const std::map<net::Asn, std::pair<std::uint64_t, std::uint64_t>> want = {
      {100, {2000, 0}}, {200, {1000, 0}}, {300, {4000, 4000}},
      {400, {3000, 3000}}};
  EXPECT_EQ(got, want);
}

TEST(ClientAnalysis, V4OnlyServicesShowZeroV6) {
  auto cat = build_paper_catalog();
  ResidenceConfig cfg = paper_residences()[2];  // Twitch/Zoom heavy
  cfg.days = 10;
  engine::FlatConntrack table;
  flowmon::FlowMonitor mon;
  mon.attach(table);
  ResidenceSimulator sim(cat, cfg);
  sim.run(table);

  for (const auto& u : core::as_usage(mon, cat.as_map(), 0.0)) {
    if (u.asn == 30103 || u.asn == 46489 || u.asn == 47) {
      EXPECT_EQ(u.v6_fraction(), 0.0) << u.as_name;
    }
  }
}

TEST(ClientAnalysis, ResidenceReportConsistency) {
  auto cat = build_paper_catalog();
  ResidenceConfig cfg = paper_residences()[0];
  cfg.days = 5;
  engine::FlatConntrack table;
  flowmon::FlowMonitor mon;
  mon.attach(table);
  ResidenceSimulator sim(cat, cfg);
  sim.run(table);

  auto report = core::analyze_residence("A", mon);
  EXPECT_EQ(report.name, "A");
  EXPECT_NEAR(report.external.total_gb,
              report.external.v4_gb + report.external.v6_gb, 1e-9);
  EXPECT_GE(report.external.overall_byte_fraction, 0.0);
  EXPECT_LE(report.external.overall_byte_fraction, 1.0);
  EXPECT_EQ(report.external.daily_byte_fraction.count, 5u);
}

TEST(ClientAnalysis, CrossResidenceJoinFiltersByPresence) {
  std::vector<std::vector<core::AsUsage>> per_res(3);
  core::AsUsage a;
  a.asn = 100;
  a.as_name = "EVERYWHERE";
  a.bytes = 10;
  per_res[0].push_back(a);
  per_res[1].push_back(a);
  per_res[2].push_back(a);
  core::AsUsage b;
  b.asn = 200;
  b.as_name = "RARE";
  b.bytes = 10;
  per_res[0].push_back(b);

  auto joined = core::ases_at_min_residences(per_res, 3);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].asn, 100u);
  EXPECT_EQ(joined[0].fractions.size(), 3u);
}

TEST(ClientAnalysis, DiurnalDecompositionShapes) {
  auto cat = build_paper_catalog();
  ResidenceConfig cfg = paper_residences()[0];
  cfg.days = 28;  // four weeks: enough for the weekly season
  engine::FlatConntrack table;
  flowmon::FlowMonitor mon;
  mon.attach(table);
  ResidenceSimulator sim(cat, cfg);
  sim.run(table);

  auto d = core::diurnal_decomposition(mon, /*by_bytes=*/true);
  ASSERT_FALSE(d.observed.empty());
  EXPECT_EQ(d.trend.size(), d.observed.size());
  EXPECT_EQ(d.daily.size(), d.observed.size());
  EXPECT_EQ(d.weekly.size(), d.observed.size());
  // Reconstruction identity.
  for (size_t i = 0; i < d.observed.size(); i += 37) {
    EXPECT_NEAR(d.trend[i] + d.daily[i] + d.weekly[i] + d.remainder[i],
                d.observed[i], 1e-9);
  }
}

}  // namespace
}  // namespace nbv6::traffic
