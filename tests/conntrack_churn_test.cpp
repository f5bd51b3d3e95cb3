// Deletion-heavy churn: randomized differential test of engine::FlatConntrack
// against the std::unordered_map reference implementation
// (testutil::ReferenceConntrack).
//
// The existing conntrack suites cover steady-state behaviour; this one
// drives the table past the one live flow production traffic holds
// (dozens live at once) and checks the behaviour that churn stresses:
//   - erase bursts in random order, which move the last live entry into
//     each erased position: every survivor must stay findable;
//   - a key closed and then touched again, which must re-open it as a
//     new flow instead of reaching its old counters;
//   - idle sweeps and a final flush over a large live set.
// Every operation is applied to both tables; live counts, sweep eviction
// counts, return codes, event counts, and the full multiset of DESTROY
// records must agree at every checkpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "engine/flat_conntrack.h"
#include "flowmon/conntrack.h"
#include "flowmon/flow_record.h"
#include "reference_conntrack.h"
#include "stats/rng.h"

namespace nbv6::engine {
namespace {

using flowmon::FlowRecord;
using flowmon::Scope;
using flowmon::Timestamp;

net::FlowKey make_key(std::uint32_t id, bool v6) {
  net::FlowKey k;
  k.protocol = (id % 3 == 0) ? net::Protocol::udp : net::Protocol::tcp;
  if (v6) {
    k.src = net::IPv6Addr::from_halves(0x2600'8800'0000'0001ull, 0x10 + (id % 7));
    k.dst = net::IPv6Addr::from_halves(0x2001'0db8'0000'0000ull, id);
  } else {
    k.src = net::IPv4Addr(192, 168, 1, static_cast<std::uint8_t>(10 + id % 40));
    k.dst = net::IPv4Addr(static_cast<std::uint32_t>(0x08080000u + id));
  }
  k.src_port = static_cast<std::uint16_t>(20000 + id % 9999);
  k.dst_port = 443;
  return k;
}

/// Collects DESTROY records; NEW events just counted.
struct Sink {
  std::vector<FlowRecord> destroyed;
  std::uint64_t news = 0;

  flowmon::ConntrackListener listener() {
    return {[this](const net::FlowKey&, Timestamp) { ++news; },
            [this](const FlowRecord& r) { destroyed.push_back(r); }};
  }
};

bool record_less(const FlowRecord& a, const FlowRecord& b) {
  if (auto c = a.key <=> b.key; c != 0) return c < 0;
  if (a.start != b.start) return a.start < b.start;
  if (a.end != b.end) return a.end < b.end;
  return a.bytes_out + a.bytes_in < b.bytes_out + b.bytes_in;
}

void expect_same_records(std::vector<FlowRecord> a, std::vector<FlowRecord> b,
                         const char* where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  std::sort(a.begin(), a.end(), record_less);
  std::sort(b.begin(), b.end(), record_less);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << where << " record " << i;
    EXPECT_EQ(a[i].start, b[i].start) << where << " record " << i;
    EXPECT_EQ(a[i].end, b[i].end) << where << " record " << i;
    EXPECT_EQ(a[i].bytes_out, b[i].bytes_out) << where << " record " << i;
    EXPECT_EQ(a[i].bytes_in, b[i].bytes_in) << where << " record " << i;
    EXPECT_EQ(a[i].packets_out, b[i].packets_out) << where << " record " << i;
    EXPECT_EQ(a[i].packets_in, b[i].packets_in) << where << " record " << i;
    EXPECT_EQ(a[i].scope, b[i].scope) << where << " record " << i;
  }
}

TEST(FlatConntrackChurn, RandomizedDifferentialWithEraseBursts) {
  FlatConntrack flat(/*idle_timeout=*/120);
  testutil::ReferenceConntrack ref(/*idle_timeout=*/120);
  Sink flat_sink, ref_sink;
  flat.subscribe(flat_sink.listener());
  ref.subscribe(ref_sink.listener());

  stats::Rng rng(0xC0FFEE);
  std::vector<net::FlowKey> live;  // keys we believe are open
  Timestamp now = 0;

  auto apply_open = [&](const net::FlowKey& k) {
    Scope scope = rng.chance(0.8) ? Scope::external : Scope::internal;
    flat.open(k, now, scope);
    ref.open(k, now, scope);
  };
  auto apply_account = [&](const net::FlowKey& k) {
    std::uint64_t out_b = rng.below(100000);
    std::uint64_t in_b = rng.below(2000000);
    bool fa = flat.account(k, now, out_b, in_b, 1, 2);
    bool fb = ref.account(k, now, out_b, in_b, 1, 2);
    EXPECT_EQ(fa, fb);
  };
  auto apply_close = [&](const net::FlowKey& k) {
    bool fa = flat.close(k, now);
    bool fb = ref.close(k, now);
    EXPECT_EQ(fa, fb);
  };

  std::uint32_t next_id = 0;
  for (int phase = 0; phase < 40; ++phase) {
    // Insert-heavy burst: open a few dozen flows, account on them (and on
    // the most recent key twice in a row).
    int inserts = 10 + static_cast<int>(rng.below(40));
    for (int i = 0; i < inserts; ++i) {
      net::FlowKey k = make_key(next_id++, rng.chance(0.4));
      apply_open(k);
      live.push_back(k);
      apply_account(k);
      if (rng.chance(0.5)) apply_account(k);  // consecutive hits on one key
      now += static_cast<Timestamp>(rng.below(5));
    }
    ASSERT_EQ(flat.live_count(), ref.live_count()) << "after inserts";

    // Close-then-touch: account one key, close it, then account it again
    // (the closed flow must not be found: account implicitly re-opens).
    if (!live.empty()) {
      size_t pick = static_cast<size_t>(rng.below(live.size()));
      net::FlowKey k = live[pick];
      apply_account(k);
      apply_close(k);
      apply_account(k);  // re-opens as a new flow with fresh counters
      apply_close(k);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }

    // Erase burst: close a random half (or nearly all, sometimes) of the
    // live flows in random order, so entries are removed from every
    // position of the live set, not just the end.
    double kill_frac = rng.chance(0.25) ? 0.9 : 0.5;
    size_t targets = static_cast<size_t>(
        static_cast<double>(live.size()) * kill_frac);
    for (size_t i = 0; i < targets && !live.empty(); ++i) {
      size_t pick = static_cast<size_t>(rng.below(live.size()));
      apply_close(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_EQ(flat.live_count(), ref.live_count()) << "after erase burst";

    // Double-close and close-of-unknown: both must report false on both.
    net::FlowKey ghost = make_key(0xFFFF0000u + static_cast<std::uint32_t>(phase), false);
    EXPECT_EQ(flat.close(ghost, now), ref.close(ghost, now));

    // Occasional idle sweep; eviction counts must match, and our live list
    // must drop everything idle past the timeout.
    if (phase % 5 == 4) {
      now += 121;  // everything currently live is idle past the timeout
      size_t ea = flat.sweep(now);
      size_t eb = ref.sweep(now);
      EXPECT_EQ(ea, eb) << "sweep at phase " << phase;
      live.clear();
      ASSERT_EQ(flat.live_count(), 0u);
      ASSERT_EQ(ref.live_count(), 0u);
    }
    now += static_cast<Timestamp>(rng.below(30));
  }

  flat.flush(now);
  ref.flush(now);
  EXPECT_EQ(flat.live_count(), 0u);
  EXPECT_EQ(ref.live_count(), 0u);

  EXPECT_EQ(flat_sink.news, ref_sink.news);
  expect_same_records(flat_sink.destroyed, ref_sink.destroyed, "final");
}

TEST(FlatConntrackChurn, EraseFromTheMiddleKeepsSurvivorsFindable) {
  // Deterministic scenario: open 64 flows, erase every third one (each
  // erase moves another live entry into the freed position), and verify
  // every surviving key is still findable (account must NOT implicitly
  // re-open it).
  FlatConntrack flat(600);
  std::vector<net::FlowKey> keys;
  for (std::uint32_t i = 0; i < 64; ++i) keys.push_back(make_key(i, i % 2));
  for (const auto& k : keys) flat.open(k, 1, Scope::external);
  ASSERT_EQ(flat.live_count(), 64u);

  // Erase every third key, then every key accounted must be a hit.
  for (size_t i = 0; i < keys.size(); i += 3) flat.close(keys[i], 2);
  for (size_t i = 0; i < keys.size(); ++i) {
    bool known = flat.account(keys[i], 3, 10, 10);
    if (i % 3 == 0) {
      EXPECT_FALSE(known) << i << " was closed, account should re-open";
    } else {
      EXPECT_TRUE(known) << i << " should have survived the erase burst";
    }
  }
}

}  // namespace
}  // namespace nbv6::engine
