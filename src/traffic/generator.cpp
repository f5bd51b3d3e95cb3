#include "traffic/generator.h"

#include <algorithm>
#include <cmath>

#include "engine/firehose.h"
#include "engine/flat_conntrack.h"
#include "flowmon/monitor.h"
#include "traffic/arrival.h"

namespace nbv6::traffic {
namespace {

using flowmon::Scope;
using flowmon::Timestamp;

std::vector<double> residence_weights(const ServiceCatalog& catalog,
                                      const ResidenceConfig& cfg) {
  std::vector<double> w;
  w.reserve(catalog.size());
  for (const auto& s : catalog.services()) {
    double mult = 1.0;
    for (const auto& [name, m] : cfg.service_weight_overrides)
      if (name == s.name) mult = m;
    w.push_back(s.popularity * mult);
  }
  return w;
}

}  // namespace

ResidenceSimulator::ResidenceSimulator(const ServiceCatalog& catalog,
                                       ResidenceConfig config)
    : catalog_(&catalog),
      cfg_(std::move(config)),
      rng_(cfg_.seed),
      service_sampler_(residence_weights(catalog, cfg_)),
      device_count_(std::max(3, static_cast<int>(cfg_.activity_scale))),
      residence_id_(static_cast<std::uint32_t>(
          cfg_.name.empty() ? 0 : (cfg_.name[0] - 'A' + 1))) {}

bool ResidenceSimulator::is_away(int day) const {
  for (auto [lo, hi] : cfg_.away_day_ranges)
    if (day >= lo && day <= hi) return true;
  return false;
}

DayPlan ResidenceSimulator::plan(int day) const {
  return cfg_.day_plan_fn ? cfg_.day_plan_fn(day) : kStaticDayPlan;
}

double ResidenceSimulator::presence(int day, int hour) const {
  if (is_away(day)) return 0.0;
  int weekday = (cfg_.start_weekday + day) % 7;  // 0 = Monday
  bool workday = weekday < 5;

  // Piecewise human-presence curve: near-zero overnight, a mid-morning
  // bump, a work-hours dip on weekdays, rising evenings peaking before
  // midnight — the §3.3 daily component.
  double p;
  if (hour < 1)
    p = 0.55;  // tail of the evening peak
  else if (hour < 6)
    p = 0.05;
  else if (hour < 8)
    p = 0.30;
  else if (hour < 11)
    p = 0.50;  // mid-morning secondary peak
  else if (hour < 17)
    p = workday ? 0.22 : 0.50;
  else if (hour < 20)
    p = 0.70;
  else
    p = 1.00;  // evening peak rising to midnight
  return p;
}

net::IpAddr ResidenceSimulator::device_addr(int device, net::Family family,
                                            int prefix_epoch) const {
  if (family == net::Family::v4)
    return net::IPv4Addr(192, 168, 1, static_cast<std::uint8_t>(10 + device));
  // Each residence holds a delegated /56-ish slice of 2600:8800::/32. A
  // prefix_renumber epoch rotates the slice deterministically — epoch 0 is
  // the original delegation, each later epoch a fresh /56 nothing upstream
  // has cached.
  std::uint64_t slice =
      static_cast<std::uint64_t>(residence_id_) +
      0x9E37ull * static_cast<std::uint64_t>(prefix_epoch);
  std::uint64_t hi = (0x2600'8800ull << 32) | ((slice & 0xFFFFFFull) << 8);
  return net::IPv6Addr::from_halves(hi,
                                    static_cast<std::uint64_t>(10 + device));
}

int ResidenceSimulator::flows_per_session(stats::Rng& rng, TrafficProfile p) {
  switch (p) {
    case TrafficProfile::web:
      return static_cast<int>(rng.between(3, 18));
    case TrafficProfile::streaming:
      return static_cast<int>(rng.between(1, 3));
    case TrafficProfile::download:
      return static_cast<int>(rng.between(1, 2));
    case TrafficProfile::call:
      return static_cast<int>(rng.between(1, 2));
    case TrafficProfile::gaming:
      return static_cast<int>(rng.between(4, 12));
    case TrafficProfile::background:
      return static_cast<int>(rng.between(1, 4));
  }
  return 1;
}

ResidenceSimulator::FlowSpec ResidenceSimulator::sample_flow(
    stats::Rng& rng, TrafficProfile p) {
  FlowSpec f{};
  switch (p) {
    case TrafficProfile::web:
      f.bytes_in = static_cast<std::uint64_t>(
          std::min(rng.lognormal(std::log(30e3), 1.4), 5e7));
      f.bytes_out = 500 + f.bytes_in / 20;
      f.duration = static_cast<Timestamp>(rng.between(1, 30));
      break;
    case TrafficProfile::streaming:
      f.bytes_in = static_cast<std::uint64_t>(
          std::min(rng.pareto(60e6, 1.15), 6e9));
      f.bytes_out = f.bytes_in / 400;
      f.duration = static_cast<Timestamp>(rng.between(300, 5400));
      break;
    case TrafficProfile::download:
      f.bytes_in = static_cast<std::uint64_t>(
          std::min(rng.pareto(150e6, 0.95), 2.5e10));
      f.bytes_out = f.bytes_in / 600;
      f.duration = static_cast<Timestamp>(rng.between(60, 3600));
      break;
    case TrafficProfile::call: {
      auto bytes = static_cast<std::uint64_t>(
          std::min(rng.lognormal(std::log(120e6), 0.8), 2e9));
      f.bytes_in = bytes;
      f.bytes_out = bytes;  // calls are symmetric
      f.duration = static_cast<Timestamp>(rng.between(600, 5400));
      break;
    }
    case TrafficProfile::gaming:
      f.bytes_in = static_cast<std::uint64_t>(
          std::min(rng.lognormal(std::log(25e3), 1.0), 1e6));
      f.bytes_out = f.bytes_in / 2;
      f.duration = static_cast<Timestamp>(rng.between(30, 3600));
      break;
    case TrafficProfile::background:
      f.bytes_in = static_cast<std::uint64_t>(
          std::min(rng.lognormal(std::log(8e3), 1.2), 2e6));
      f.bytes_out = 300 + f.bytes_in / 10;
      f.duration = static_cast<Timestamp>(rng.between(1, 120));
      break;
  }
  return f;
}

template <typename Sink>
void ResidenceSimulator::run_session(stats::Rng& rng, Sink& sink,
                                     Timestamp t, size_t service_idx,
                                     bool background, const DayPlan& day) {
  // Opt-outs: some devices bypass the study router entirely.
  if (!rng.chance(cfg_.visibility)) {
    ++stats_.skipped_invisible;
    return;
  }
  ++stats_.sessions;

  // Per-service outage: the destination itself is down, every family. The
  // mask is 64 bits wide; the parser caps svc indices accordingly.
  if (service_idx < 64 &&
      ((day.service_down_mask >> service_idx) & 1ull) != 0) {
    ++stats_.service_outage_failed;
    return;
  }

  const Service& svc = catalog_->at(service_idx);
  int device = static_cast<int>(rng.below(static_cast<std::uint64_t>(device_count_)));
  const double v6_ok_frac = day.device_v6_ok_frac >= 0.0
                                ? day.device_v6_ok_frac
                                : cfg_.device_v6_ok_frac;
  bool device_v6_ok = rng.chance(v6_ok_frac);

  int endpoint_idx = static_cast<int>(
      rng.below(ServiceCatalog::kEndpointsPerService));
  Endpoint ep = catalog_->endpoint(service_idx, endpoint_idx);

  // Pick the WAN family the session rides.
  bool via_v6;
  bool opened_both = false;
  if (day.nat64) {
    // v6-only access network: there is no IPv4 path to race. Devices whose
    // IPv6 is broken simply have no connectivity (the paper's CPE-breakage
    // failure mode, made total); everything else rides IPv6, so no
    // losing-family duplicate flow either.
    if (!device_v6_ok) {
      ++stats_.he_failures;
      return;
    }
    via_v6 = true;
  } else {
    // Background chatter skews IPv4: much of it is legacy firmware and
    // update CDNs pinned to literal IPv4 endpoints (the paper's
    // observation that unoccupied-house traffic is mostly IPv4).
    bool force_v4 = background && rng.chance(cfg_.background_v4_bias);

    double v4_rtt = rng.lognormal(std::log(18.0), 0.4);
    double v6_rtt = rng.lognormal(std::log(18.0), 0.4);
    auto decision = happy_eyeballs_race(true, ep.v6.has_value(),
                                        device_v6_ok && !force_v4, v4_rtt,
                                        v6_rtt, rng, he_cfg_);
    if (decision.failed) {
      ++stats_.he_failures;
      return;
    }
    via_v6 = decision.used == net::Family::v6 && ep.v6.has_value();
    opened_both = decision.opened_both;
  }

  // v6 sessions to v4-only destinations only happen behind NAT64, where
  // the CPE translates toward the RFC 6146 well-known prefix.
  const net::IpAddr dst =
      !via_v6 ? net::IpAddr(ep.v4)
              : net::IpAddr(ep.v6 ? *ep.v6
                                  : net::IPv6Addr::from_halves(
                                        0x0064'ff9b'0000'0000ull,
                                        static_cast<std::uint64_t>(
                                            ep.v4.value())));

  const bool use_udp = svc.profile == TrafficProfile::streaming ||
                       svc.profile == TrafficProfile::call
                           ? rng.chance(0.6)
                           : rng.chance(0.1);

  int nflows = flows_per_session(rng, svc.profile);

  // CGN port-pool exhaustion: every v4 WAN flow consumes one translation
  // port for the day. A session whose flows would overrun the budget fails
  // outright (the translator refuses new bindings); IPv6 is untouched. The
  // losing-HE duplicate flow below is deliberately not charged — it never
  // completes a binding.
  if (!via_v6 && day.cgn_port_budget >= 0) {
    if (cgn_ports_used_ + nflows > day.cgn_port_budget) {
      ++stats_.cgn_failures;
      return;
    }
    cgn_ports_used_ += nflows;
  }

  for (int i = 0; i < nflows; ++i) {
    FlowSpec spec = sample_flow(rng, svc.profile);
    net::FlowKey key;
    key.protocol = use_udp ? net::Protocol::udp : net::Protocol::tcp;
    key.src = device_addr(device, via_v6 ? net::Family::v6 : net::Family::v4,
                          day.prefix_epoch);
    key.dst = dst;
    key.src_port = next_port();
    key.dst_port = 443;

    const Timestamp start = t + static_cast<Timestamp>(rng.below(60));
    sink.add({.key = key,
              .start = start,
              .end = start + spec.duration,
              .bytes_out = spec.bytes_out,
              .bytes_in = spec.bytes_in,
              .scope = Scope::external});
    ++stats_.flows;
  }

  // The losing Happy Eyeballs connection: a near-empty flow on the other
  // family (§3.2's explanation for stable flow fractions vs volatile byte
  // fractions).
  if (opened_both) {
    net::FlowKey key;
    key.protocol = net::Protocol::tcp;
    if (via_v6) {
      key.src = device_addr(device, net::Family::v4);
      key.dst = ep.v4;
    } else if (ep.v6) {
      key.src = device_addr(device, net::Family::v6, day.prefix_epoch);
      key.dst = *ep.v6;
    } else {
      return;
    }
    key.src_port = next_port();
    key.dst_port = 443;
    sink.add({.key = key,
              .start = t,
              .end = t + 1,
              .bytes_out = 400,  // SYN/handshake remnants
              .bytes_in = 300,
              .scope = Scope::external});
    ++stats_.flows;
  }
}

template <typename Sink>
void ResidenceSimulator::run_internal(stats::Rng& rng, Sink& sink,
                                      Timestamp t, Timestamp window,
                                      const DayPlan& day) {
  int a = static_cast<int>(rng.below(static_cast<std::uint64_t>(device_count_)));
  int b = static_cast<int>(rng.below(static_cast<std::uint64_t>(device_count_)));
  if (a == b) b = (b + 1) % device_count_;

  const double v6_frac = day.internal_v6_frac >= 0.0 ? day.internal_v6_frac
                                                     : cfg_.internal_v6_frac;
  bool v6 = rng.chance(v6_frac);
  net::FlowKey key;
  key.protocol = rng.chance(0.5) ? net::Protocol::udp : net::Protocol::tcp;
  key.src = device_addr(a, v6 ? net::Family::v6 : net::Family::v4,
                        day.prefix_epoch);
  key.dst = device_addr(b, v6 ? net::Family::v6 : net::Family::v4,
                        day.prefix_epoch);
  key.src_port = next_port();
  key.dst_port = rng.chance(0.4) ? 5353 : 445;  // mDNS / SMB-ish mix

  auto bytes = static_cast<std::uint64_t>(
      std::min(rng.lognormal(std::log(50e3), 1.6), 5e8));
  const Timestamp start =
      t + static_cast<Timestamp>(rng.below(static_cast<std::uint64_t>(window)));
  sink.add({.key = key,
            .start = start,
            .end = start + static_cast<Timestamp>(rng.between(1, 300)),
            .bytes_out = bytes / 2,
            .bytes_in = bytes / 2,
            .scope = Scope::internal});
  ++stats_.flows;
}

size_t ResidenceSimulator::background_service(stats::Rng& rng) {
  // Background favours software/update and cloud endpoints.
  size_t idx = service_sampler_.sample(rng);
  const auto& svc = catalog_->at(idx);
  if (svc.profile != TrafficProfile::background && rng.chance(0.5)) {
    // Re-roll once toward background-profile services.
    for (size_t j = 0; j < catalog_->size(); ++j) {
      if (catalog_->at(j).profile == TrafficProfile::background) {
        idx = j;
        break;
      }
    }
  }
  return idx;
}

double ResidenceSimulator::hour_lambda(int day, int hour,
                                       const DayPlan& today) const {
  // Interactive sessions follow presence, scaled by the timeline's
  // seasonal multiplier and the open-loop lambda shaping. The ramp and
  // flash factors default to exactly 1.0, and x * 1.0 is an IEEE bit
  // identity, so plans without those events reproduce the original
  // expression bit for bit (the golden-replay guarantee).
  double lam = cfg_.activity_scale * today.activity_mult;
  lam *= today.lambda_mult;
  if (hour >= 0 && hour < 24 && ((today.flash_hour_mask >> hour) & 1u) != 0)
    lam *= today.flash_mult;
  return lam * presence(day, hour);
}

template <typename Sink>
void ResidenceSimulator::simulate_slot(Sink& sink, int day, int tick,
                                       int tph, stats::Rng& rng,
                                       const DayPlan& today) {
  if constexpr (requires(Sink& s) { s.advance(0, 0); })
    sink.advance(day, tick);
  const int hour = tick / tph;
  const int slot = tick % tph;
  const Timestamp hour_start =
      static_cast<Timestamp>(day) * flowmon::kSecondsPerDay +
      static_cast<Timestamp>(hour) * flowmon::kSecondsPerHour;
  // Integer-truncated slot boundaries tile the hour exactly even when tph
  // does not divide 3600; every slot is at least one second wide.
  const Timestamp t0 = hour_start + (static_cast<Timestamp>(slot) * 3600) / tph;
  const Timestamp t1 =
      hour_start + (static_cast<Timestamp>(slot + 1) * 3600) / tph;
  const Timestamp tick_len = std::max<Timestamp>(t1 - t0, 1);
  const double inv_tph = 1.0 / static_cast<double>(tph);

  int sessions = draw_arrivals(cfg_.arrival.mode, rng,
                               hour_lambda(day, hour, today) * inv_tph);
  for (int s = 0; s < sessions; ++s) {
    if (today.outage) {
      // Connectivity is down: the session never reaches the WAN and the
      // router sees nothing (humans notice and give up).
      ++stats_.outage_suppressed;
      continue;
    }
    Timestamp t =
        t0 + static_cast<Timestamp>(rng.below(static_cast<std::uint64_t>(tick_len)));
    run_session(rng, sink, t, service_sampler_.sample(rng),
                /*background=*/false, today);
  }

  // Background chatter runs regardless of presence (phones at home, TVs
  // polling, OS updates) at a low constant rate.
  int bg = draw_arrivals(cfg_.arrival.mode, rng, 1.2 * inv_tph);
  for (int s = 0; s < bg; ++s) {
    if (today.outage) {
      ++stats_.outage_suppressed;
      continue;
    }
    Timestamp t =
        t0 + static_cast<Timestamp>(rng.below(static_cast<std::uint64_t>(tick_len)));
    size_t idx = background_service(rng);
    run_session(rng, sink, t, idx, /*background=*/true, today);
  }

  // Internal LAN flows: the one thing an outage does not stop.
  int internal = draw_arrivals(
      cfg_.arrival.mode, rng,
      cfg_.internal_flows_per_hour * std::max(0.2, presence(day, hour)) *
          inv_tph);
  for (int s = 0; s < internal; ++s)
    run_internal(rng, sink, t0, tick_len, today);
}

void ResidenceSimulator::begin_run() {
  stats_ = SimulationStats{};
  stats_.daily.assign(static_cast<size_t>(std::max(cfg_.days, 0)),
                      DaySessionStats{});
}

template <typename Sink>
void ResidenceSimulator::run_day(Sink& sink, int day) {
  // The plan is a pure function of the day; one evaluation governs all
  // 24 hours (and keeps lazy providers out of the hour/tick loop).
  const DayPlan today = plan(day);
  cgn_ports_used_ = 0;  // the CGN translator recycles bindings overnight
  const DaySessionStats before{stats_.sessions, stats_.he_failures,
                               stats_.outage_suppressed,
                               stats_.service_outage_failed,
                               stats_.cgn_failures};
  const int tph = cfg_.arrival.slots_per_hour();
  for (int tick = 0; tick < 24 * tph; ++tick) {
    if (cfg_.arrival.mode == ArrivalMode::batch) {
      // One slot per hour on the run-long stream: at tph = 1 the slot
      // arithmetic is exact, so this is the original per-hour generator.
      simulate_slot(sink, day, tick, tph, rng_, today);
    } else {
      // The whole slot runs off one fresh counter-based stream — arrivals
      // and session bodies alike are pure in (seed, index, day, tick).
      stats::Rng rng = arrival_tick_rng(cfg_.seed, day, tick);
      simulate_slot(sink, day, tick, tph, rng, today);
    }
  }
  if (day >= 0 && static_cast<size_t>(day) < stats_.daily.size())
    stats_.daily[static_cast<size_t>(day)] = {
        stats_.sessions - before.sessions,
        stats_.he_failures - before.he_failures,
        stats_.outage_suppressed - before.outage_suppressed,
        stats_.service_outage_failed - before.service_outage_failed,
        stats_.cgn_failures - before.cgn_failures};
}

template <typename Sink>
SimulationStats ResidenceSimulator::run(Sink& sink) {
  begin_run();
  for (int day = 0; day < cfg_.days; ++day) run_day(sink, day);
  return stats_;
}

// Fleet shards' sink, the firehose capture buffer and the conntrack table
// (kept for tests and perfbench). New sinks only need an instantiation here.
template SimulationStats ResidenceSimulator::run(flowmon::MonitorSink&);
template SimulationStats ResidenceSimulator::run(engine::FlatConntrack&);
template SimulationStats ResidenceSimulator::run(engine::FlowEventBuffer&);
template void ResidenceSimulator::run_day(engine::FlowEventBuffer&, int);

}  // namespace nbv6::traffic
