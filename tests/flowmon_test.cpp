#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include "engine/flat_conntrack.h"
#include "flowmon/conntrack.h"
#include "flowmon/monitor.h"
#include "monitor_checks.h"
#include "reference_conntrack.h"
#include "stats/rng.h"

namespace nbv6::flowmon {
namespace {

net::FlowKey make_key(std::uint8_t host, std::uint16_t port,
                      bool v6 = false) {
  net::FlowKey k;
  k.protocol = net::Protocol::tcp;
  if (v6) {
    k.src = net::IPv6Addr::from_halves(0x26008800ull << 32, host);
    k.dst = net::IPv6Addr::from_halves(0x2600ull << 48, host);
  } else {
    k.src = net::IPv4Addr(192, 168, 1, host);
    k.dst = net::IPv4Addr(20, 0, 0, host);
  }
  k.src_port = port;
  k.dst_port = 443;
  return k;
}

// Shared fixture: every conntrack behaviour test runs against both the
// std::unordered_map reference table and engine::FlatConntrack, pinning
// the latter to the reference semantics.
template <typename Table>
class ConntrackLike : public ::testing::Test {};

using ConntrackImpls =
    ::testing::Types<testutil::ReferenceConntrack, engine::FlatConntrack>;
TYPED_TEST_SUITE(ConntrackLike, ConntrackImpls);

TYPED_TEST(ConntrackLike, NewAndDestroyEventsFire) {
  TypeParam table;
  int news = 0, destroys = 0;
  ConntrackListener l;
  l.on_new = [&](const net::FlowKey&, Timestamp) { ++news; };
  l.on_destroy = [&](const FlowRecord&) { ++destroys; };
  table.subscribe(std::move(l));

  auto k = make_key(1, 1000);
  table.open(k, 10, Scope::external);
  EXPECT_EQ(news, 1);
  EXPECT_EQ(table.live_count(), 1u);
  table.close(k, 20);
  EXPECT_EQ(destroys, 1);
  EXPECT_EQ(table.live_count(), 0u);
}

TYPED_TEST(ConntrackLike, ReopenLiveFlowIsNoop) {
  TypeParam table;
  int news = 0;
  ConntrackListener l;
  l.on_new = [&](const net::FlowKey&, Timestamp) { ++news; };
  table.subscribe(std::move(l));
  auto k = make_key(1, 1000);
  table.open(k, 10, Scope::external);
  table.open(k, 15, Scope::external);
  EXPECT_EQ(news, 1);
}

TYPED_TEST(ConntrackLike, AccountingAccumulates) {
  TypeParam table;
  FlowRecord last;
  ConntrackListener l;
  l.on_destroy = [&](const FlowRecord& r) { last = r; };
  table.subscribe(std::move(l));

  auto k = make_key(2, 1001);
  table.open(k, 100, Scope::external);
  EXPECT_TRUE(table.account(k, 101, 500, 10000));
  EXPECT_TRUE(table.account(k, 102, 300, 7000));
  table.close(k, 200);
  EXPECT_EQ(last.bytes_out, 800u);
  EXPECT_EQ(last.bytes_in, 17000u);
  EXPECT_EQ(last.total_bytes(), 17800u);
  EXPECT_EQ(last.start, 100);
  EXPECT_EQ(last.end, 200);
  EXPECT_GT(last.packets_in, 0u);
}

TYPED_TEST(ConntrackLike, MidstreamPickupOpensImplicitly) {
  TypeParam table;
  auto k = make_key(3, 1002);
  EXPECT_FALSE(table.account(k, 50, 10, 10));  // false: implicitly opened
  EXPECT_EQ(table.live_count(), 1u);
}

TYPED_TEST(ConntrackLike, CloseUnknownFlowFails) {
  TypeParam table;
  EXPECT_FALSE(table.close(make_key(4, 1003), 10));
}

TYPED_TEST(ConntrackLike, SweepEvictsIdleFlows) {
  TypeParam table(/*idle_timeout=*/60);
  int destroys = 0;
  ConntrackListener l;
  l.on_destroy = [&](const FlowRecord&) { ++destroys; };
  table.subscribe(std::move(l));

  table.open(make_key(5, 1004), 0, Scope::external);
  table.open(make_key(6, 1005), 50, Scope::external);
  EXPECT_EQ(table.sweep(59), 0u);   // nothing idle >= 60s yet
  EXPECT_EQ(table.sweep(60), 1u);   // first flow idle exactly 60s
  EXPECT_EQ(destroys, 1);
  EXPECT_EQ(table.live_count(), 1u);
}

TYPED_TEST(ConntrackLike, FlushClosesEverything) {
  TypeParam table;
  int destroys = 0;
  ConntrackListener l;
  l.on_destroy = [&](const FlowRecord&) { ++destroys; };
  table.subscribe(std::move(l));
  table.open(make_key(7, 1), 0, Scope::external);
  table.open(make_key(8, 2), 0, Scope::internal);
  table.flush(100);
  EXPECT_EQ(destroys, 2);
  EXPECT_EQ(table.live_count(), 0u);
}

// High-churn workload with thousands of flows live at once (production
// holds at most one): bookkeeping must stay exact through interleaved
// opens, closes and a sweep of the survivors.
TYPED_TEST(ConntrackLike, HighChurnKeepsBookkeeping) {
  TypeParam table(/*idle_timeout=*/600);
  std::uint64_t destroyed_bytes = 0;
  int destroys = 0;
  ConntrackListener l;
  l.on_destroy = [&](const FlowRecord& r) {
    ++destroys;
    destroyed_bytes += r.total_bytes();
  };
  table.subscribe(std::move(l));

  constexpr int kFlows = 5000;
  for (int i = 0; i < kFlows; ++i) {
    auto k = make_key(static_cast<std::uint8_t>(i % 251),
                      static_cast<std::uint16_t>(i), i % 3 == 0);
    table.open(k, i, Scope::external);
    table.account(k, i, 100, 900);
    if (i % 2 == 0) table.close(k, i + 5);  // half stay live
  }
  EXPECT_EQ(table.live_count(), kFlows / 2u);
  EXPECT_EQ(destroys, kFlows / 2);
  // Evict the rest via sweep (all idle long past the timeout).
  EXPECT_EQ(table.sweep(kFlows + 700), kFlows / 2u);
  EXPECT_EQ(table.live_count(), 0u);
  EXPECT_EQ(destroys, kFlows);
  EXPECT_EQ(destroyed_bytes, static_cast<std::uint64_t>(kFlows) * 1000u);
}

// The two implementations must agree flow-by-flow, not just in aggregate:
// drive an identical randomized open/account/close/sweep schedule into both
// and compare the full per-key destroy records.
TEST(FlatConntrackEquivalence, MatchesReferenceTablePerFlow) {
  testutil::ReferenceConntrack ref(/*idle_timeout=*/120);
  engine::FlatConntrack flat(/*idle_timeout=*/120);
  std::map<net::FlowKey, FlowRecord> ref_records, flat_records;
  ConntrackListener rl, fl;
  rl.on_destroy = [&](const FlowRecord& r) { ref_records[r.key] = r; };
  fl.on_destroy = [&](const FlowRecord& r) { flat_records[r.key] = r; };
  ref.subscribe(std::move(rl));
  flat.subscribe(std::move(fl));

  std::uint64_t x = 42;
  for (int step = 0; step < 20000; ++step) {
    std::uint64_t r = stats::splitmix64(x);
    auto k = make_key(static_cast<std::uint8_t>(r % 97),
                      static_cast<std::uint16_t>((r >> 8) % 500),
                      (r >> 20) % 2 == 0);
    Timestamp now = step;
    switch ((r >> 32) % 4) {
      case 0:
        ref.open(k, now, Scope::external);
        flat.open(k, now, Scope::external);
        break;
      case 1:
        EXPECT_EQ(ref.account(k, now, r % 1000, r % 3000),
                  flat.account(k, now, r % 1000, r % 3000));
        break;
      case 2:
        EXPECT_EQ(ref.close(k, now), flat.close(k, now));
        break;
      case 3:
        if (step % 500 == 0) {
          EXPECT_EQ(ref.sweep(now), flat.sweep(now));
        }
        break;
    }
    ASSERT_EQ(ref.live_count(), flat.live_count()) << "step " << step;
  }
  ref.flush(30000);
  flat.flush(30000);
  ASSERT_EQ(ref_records.size(), flat_records.size());
  for (const auto& [key, rec] : ref_records) {
    auto it = flat_records.find(key);
    ASSERT_TRUE(it != flat_records.end()) << key.to_string();
    EXPECT_EQ(rec.start, it->second.start);
    EXPECT_EQ(rec.end, it->second.end);
    EXPECT_EQ(rec.bytes_out, it->second.bytes_out);
    EXPECT_EQ(rec.bytes_in, it->second.bytes_in);
    EXPECT_EQ(rec.packets_out, it->second.packets_out);
    EXPECT_EQ(rec.packets_in, it->second.packets_in);
  }
}

// ------------------------------------------------------------ monitor

TEST(Monitor, SplitsByFamilyAndScope) {
  engine::FlatConntrack table;
  FlowMonitor mon;
  mon.attach(table);

  auto k4 = make_key(1, 10, false);
  table.open(k4, 10, Scope::external);
  table.account(k4, 10, 100, 900);
  table.close(k4, 20);

  auto k6 = make_key(2, 11, true);
  table.open(k6, 30, Scope::external);
  table.account(k6, 30, 500, 2500);
  table.close(k6, 40);

  auto ki = make_key(3, 12, false);
  table.open(ki, 50, Scope::internal);
  table.account(ki, 50, 50, 50);
  table.close(ki, 60);

  const auto& ext = mon.totals(Scope::external);
  EXPECT_EQ(ext.v4.bytes, 1000u);
  EXPECT_EQ(ext.v6.bytes, 3000u);
  EXPECT_EQ(ext.v4.flows, 1u);
  EXPECT_EQ(ext.v6.flows, 1u);
  EXPECT_NEAR(ext.v6_byte_fraction(), 0.75, 1e-12);
  EXPECT_NEAR(ext.v6_flow_fraction(), 0.5, 1e-12);

  const auto& in = mon.totals(Scope::internal);
  EXPECT_EQ(in.v4.bytes, 100u);
  EXPECT_EQ(in.total_flows(), 1u);
}

TEST(Monitor, EmptyFractionIsSentinel) {
  engine::FlatConntrack table;
  FlowMonitor mon;
  mon.attach(table);
  EXPECT_LT(mon.totals(Scope::external).v6_byte_fraction(), 0.0);
}

TEST(Monitor, DailyBucketsByStartTime) {
  engine::FlatConntrack table;
  FlowMonitor mon;
  mon.attach(table);

  auto day0 = make_key(1, 20, true);
  table.open(day0, 1000, Scope::external);
  table.account(day0, 1000, 0, 100);
  table.close(day0, 1001);

  auto day2 = make_key(2, 21, false);
  table.open(day2, 2 * kSecondsPerDay + 5, Scope::external);
  table.account(day2, 2 * kSecondsPerDay + 5, 0, 300);
  table.close(day2, 2 * kSecondsPerDay + 10);

  // Dense series: days 0..2, with day 1 an empty (no-traffic) cell.
  const auto& daily = mon.daily(Scope::external);
  ASSERT_EQ(daily.size(), 3u);
  EXPECT_EQ(daily[1], FamilySplit{});
  EXPECT_NEAR(daily[0].v6_byte_fraction(), 1.0, 1e-12);
  EXPECT_NEAR(daily[2].v6_byte_fraction(), 0.0, 1e-12);

  auto fracs = mon.daily_v6_fractions(Scope::external, true);
  ASSERT_EQ(fracs.size(), 2u);
  EXPECT_DOUBLE_EQ(fracs[0], 1.0);
  EXPECT_DOUBLE_EQ(fracs[1], 0.0);
}

TEST(Monitor, HourlySeriesFillsGaps) {
  engine::FlatConntrack table;
  FlowMonitor mon;
  mon.attach(table);

  auto h0 = make_key(1, 30, true);
  table.open(h0, 0, Scope::external);
  table.account(h0, 0, 0, 100);
  table.close(h0, 1);

  auto h3 = make_key(2, 31, false);
  table.open(h3, 3 * kSecondsPerHour, Scope::external);
  table.account(h3, 3 * kSecondsPerHour, 0, 100);
  table.close(h3, 3 * kSecondsPerHour + 1);

  auto series = mon.hourly_v6_fraction_series(true);
  ASSERT_EQ(series.size(), 4u);  // hours 0..3
  EXPECT_DOUBLE_EQ(series[0], 1.0);
  EXPECT_DOUBLE_EQ(series[1], 1.0);  // gap carries previous value
  EXPECT_DOUBLE_EQ(series[2], 1.0);
  EXPECT_DOUBLE_EQ(series[3], 0.0);
}

TEST(Monitor, DestinationTalliesExternalOnly) {
  engine::FlatConntrack table;
  FlowMonitor mon;
  mon.attach(table);

  auto ext = make_key(1, 40, false);
  table.open(ext, 0, Scope::external);
  table.account(ext, 0, 10, 90);
  table.close(ext, 1);

  auto internal = make_key(2, 41, false);
  table.open(internal, 0, Scope::internal);
  table.account(internal, 0, 10, 10);
  table.close(internal, 1);

  auto tallies = mon.destination_tallies();
  ASSERT_EQ(tallies.size(), 1u);
  EXPECT_EQ(tallies[0].addr, ext.dst);
  EXPECT_EQ(tallies[0].tally.bytes, 100u);
}

TEST(Monitor, CountsNewAndDestroyEvents) {
  engine::FlatConntrack table;
  FlowMonitor mon;
  mon.attach(table);
  auto k = make_key(1, 50);
  table.open(k, 0, Scope::external);
  EXPECT_EQ(mon.new_events(), 1u);
  EXPECT_EQ(mon.destroy_events(), 0u);
  table.close(k, 1);
  EXPECT_EQ(mon.new_events(), 1u);
  EXPECT_EQ(mon.destroy_events(), 1u);
}

TEST(Monitor, RejectsPreEpochRecordAndStaysUnchanged) {
  engine::FlatConntrack table;
  FlowMonitor mon;
  mon.attach(table);
  // Prior traffic in both scopes, so "unchanged" covers non-empty state.
  auto v6 = make_key(1, 60, true);
  table.open(v6, 3 * kSecondsPerHour, Scope::external);
  table.account(v6, 3 * kSecondsPerHour, 0, 500);
  table.close(v6, 3 * kSecondsPerHour + 5);
  auto lan = make_key(2, 61);
  table.open(lan, kSecondsPerDay, Scope::internal);
  table.close(lan, kSecondsPerDay + 1);

  for (Scope scope : {Scope::external, Scope::internal}) {
    auto early = make_key(3, scope == Scope::external ? 62 : 63);
    table.open(early, -30, scope);
    table.account(early, -20, 100, 900);
    const FlowMonitor before = mon;
    EXPECT_THROW(table.close(early, -10), std::out_of_range)
        << to_string(scope);
    testutil::expect_same_aggregates(mon, before);
  }
  EXPECT_EQ(mon.destroy_events(), 2u);
  EXPECT_EQ(mon.totals(Scope::external).total_flows(), 1u);
}

TEST(Monitor, DestinationTableMatchesMapReference) {
  // ~10k distinct destinations of both families, some seen several times,
  // ingested in a shuffled order: the table rehashes from 16 slots to 32k.
  std::vector<net::IpAddr> addrs;
  for (std::uint32_t i = 0; i < 5000; ++i)
    addrs.emplace_back(net::IPv4Addr(0x14000000u + i * 7919u));
  for (std::uint64_t i = 0; i < 2500; ++i) {
    // Half differ only in the interface id, half only in the prefix.
    addrs.emplace_back(net::IPv6Addr::from_halves(0x26000000ull << 32, i));
    addrs.emplace_back(
        net::IPv6Addr::from_halves((0x2a000000ull << 32) | (i << 16), 1));
  }
  std::vector<net::IpAddr> flows;
  for (size_t i = 0; i < addrs.size(); ++i)
    for (size_t n = 0; n < 1 + i % 3; ++n) flows.push_back(addrs[i]);
  stats::Rng rng(15);
  for (size_t i = flows.size(); i > 1; --i)
    std::swap(flows[i - 1], flows[rng.below(i)]);

  engine::FlatConntrack table;
  FlowMonitor mon;
  mon.attach(table);
  std::map<net::IpAddr, Tally> reference;
  const net::IpAddr src_v4 = net::IPv4Addr(192, 168, 1, 2);
  const net::IpAddr src_v6 = net::IPv6Addr::from_halves(0x26008800ull << 32, 1);
  for (size_t i = 0; i < flows.size(); ++i) {
    net::FlowKey k;
    k.dst = flows[i];
    k.src = flows[i].is_v6() ? src_v6 : src_v4;
    k.src_port = static_cast<std::uint16_t>(i);
    const auto t = static_cast<Timestamp>(i);
    const std::uint64_t bytes = 40 + i % 1000;
    table.open(k, t, Scope::external);
    table.account(k, t, 0, bytes);
    table.close(k, t + 1);
    reference[flows[i]] += Tally{bytes, 1};
  }

  const auto tallies = mon.destination_tallies();
  ASSERT_EQ(reference.size(), 10000u);
  ASSERT_EQ(tallies.size(), reference.size());
  EXPECT_TRUE(std::is_sorted(
      tallies.begin(), tallies.end(),
      [](const DestTally& a, const DestTally& b) { return a.addr < b.addr; }));
  size_t i = 0;
  for (const auto& [addr, tally] : reference) {
    EXPECT_EQ(tallies[i].addr, addr) << "entry " << i;
    EXPECT_EQ(tallies[i].tally, tally) << addr.to_string();
    ++i;
  }
  EXPECT_EQ(mon.totals(Scope::external).total_flows(), flows.size());
}

TEST(FlowRecordHelpers, DayAndHour) {
  FlowRecord r;
  r.start = 2 * kSecondsPerDay + 5 * kSecondsPerHour + 123;
  EXPECT_EQ(r.day(), 2);
  EXPECT_EQ(r.hour_of_day(), 5);
}

TEST(FlowKeyHashing, DistinctKeysUsuallyDiffer) {
  net::FlowKeyHash h;
  auto a = make_key(1, 1000);
  auto b = make_key(1, 1001);
  auto c = make_key(2, 1000, true);
  EXPECT_NE(h(a), h(b));
  EXPECT_NE(h(a), h(c));
  EXPECT_EQ(h(a), h(make_key(1, 1000)));
}

}  // namespace
}  // namespace nbv6::flowmon
