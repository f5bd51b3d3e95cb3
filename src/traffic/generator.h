// ResidenceSimulator: generates nine months of household traffic.
//
// The synthetic stand-in for the paper's IRB-protected residence captures.
// Hands each finished flow to a sink, as one flowmon::FlowRecord, with a
// statistical structure that follows the causal model §3 establishes:
//
//   - Interactive traffic follows human presence: strong evening peak, a
//     mid-morning bump, weekday work-hours dips, scripted absences with
//     only background chatter (the spring-break signal of Fig. 2).
//   - Each session picks a service from the residence's weighted mix, an
//     endpoint of that service, and races Happy Eyeballs; bytes follow
//     heavy-tailed per-profile distributions so single downloads can swing
//     a whole day's fraction (the Fig. 1 tails).
//   - Background (non-human) traffic runs around the clock and leans IPv4.
//   - Internal LAN flows are generated separately with their own IPv6 mix.
#pragma once

#include <cstdint>
#include <vector>

#include "flowmon/flow_record.h"
#include "stats/rng.h"
#include "traffic/happy_eyeballs.h"
#include "traffic/residence.h"
#include "traffic/service_catalog.h"

namespace nbv6::traffic {

/// One simulated day's session outcomes — the day-resolved slice of
/// SimulationStats that windowed analyses (pre/post failure-rate panels
/// across NAT64 migrations and outages) test on.
struct DaySessionStats {
  std::uint64_t sessions = 0;
  std::uint64_t he_failures = 0;
  std::uint64_t outage_suppressed = 0;
  std::uint64_t service_outage_failed = 0;  ///< per-service outage rejections
  std::uint64_t cgn_failures = 0;           ///< v4 sessions over the CGN budget

  DaySessionStats& operator+=(const DaySessionStats& o) {
    sessions += o.sessions;
    he_failures += o.he_failures;
    outage_suppressed += o.outage_suppressed;
    service_outage_failed += o.service_outage_failed;
    cgn_failures += o.cgn_failures;
    return *this;
  }
  friend bool operator==(const DaySessionStats&,
                         const DaySessionStats&) = default;
};

struct SimulationStats {
  std::uint64_t sessions = 0;
  std::uint64_t flows = 0;
  std::uint64_t skipped_invisible = 0;  ///< sessions lost to opt-out routers
  std::uint64_t he_failures = 0;        ///< Happy Eyeballs total failures
  std::uint64_t outage_suppressed = 0;  ///< sessions lost to outage days
  /// Sessions rejected by a per-service outage (service_outage events).
  std::uint64_t service_outage_failed = 0;
  /// v4 sessions rejected above the day's CGN port budget (cgn_exhaustion).
  std::uint64_t cgn_failures = 0;
  /// Entry d = day d's slice of the counters above (sessions, he_failures,
  /// outage_suppressed, service_outage_failed, cgn_failures sum to the
  /// horizon totals). Sized to the simulated horizon by
  /// ResidenceSimulator::run.
  std::vector<DaySessionStats> daily;

  /// Fold another run's counters into this one (the fleet reduction).
  /// Element-wise over the daily series, resizing to the longer horizon;
  /// associative and commutative, so any fold order is bit-identical.
  SimulationStats& operator+=(const SimulationStats& o) {
    sessions += o.sessions;
    flows += o.flows;
    skipped_invisible += o.skipped_invisible;
    he_failures += o.he_failures;
    outage_suppressed += o.outage_suppressed;
    service_outage_failed += o.service_outage_failed;
    cgn_failures += o.cgn_failures;
    if (daily.size() < o.daily.size()) daily.resize(o.daily.size());
    for (size_t d = 0; d < o.daily.size(); ++d) daily[d] += o.daily[d];
    return *this;
  }
};

class ResidenceSimulator {
 public:
  ResidenceSimulator(const ServiceCatalog& catalog, ResidenceConfig config);

  /// Run the full configured period, calling `sink.add(record)` once per
  /// finished flow, in generation order. Instantiated in generator.cpp for
  /// flowmon::MonitorSink, engine::FlatConntrack and the firehose's
  /// engine::FlowEventBuffer, so fleet shards and the firehose drive the
  /// exact same generator code.
  /// If the sink additionally exposes `advance(int day, int tick)`, the
  /// generator calls it at the start of every time slot (hour in batch
  /// mode, tick otherwise) — how the firehose attributes flows to ticks
  /// without widening the sink API.
  template <typename Sink>
  SimulationStats run(Sink& sink);

  /// Stepped interface for day-granular drivers (engine::Firehose):
  /// begin_run() resets the run's statistics, then run_day() simulates one
  /// day — run(sink) is exactly begin_run + run_day for every day.
  void begin_run();
  template <typename Sink>
  void run_day(Sink& sink, int day);
  /// Counters accumulated so far by begin_run/run_day stepping.
  [[nodiscard]] const SimulationStats& stats() const { return stats_; }

  /// Human presence multiplier in [0,1] for one hour slot; exposed for
  /// tests of the diurnal model.
  [[nodiscard]] double presence(int day, int hour) const;

  /// Expected interactive sessions in hour `hour` of `day`: the presence
  /// curve scaled by activity and the day plan's lambda shaping
  /// (activity_mult, lambda_mult, flash-crowd hours). Exposed for tests of
  /// the open-loop rate model.
  [[nodiscard]] double hour_lambda(int day, int hour,
                                   const DayPlan& today) const;

 private:
  struct FlowSpec {
    std::uint64_t bytes_out;
    std::uint64_t bytes_in;
    flowmon::Timestamp duration;
  };

  /// One time slot (`tph` per hour): `rng` draws the slot's arrivals and
  /// drives its session bodies. Batch mode passes the run-long rng_ at
  /// tph = 1; open-loop modes pass a fresh counter-based stream keyed on
  /// (residence seed, day, tick), so everything inside the slot is pure in
  /// (seed, index, day, tick).
  template <typename Sink>
  void simulate_slot(Sink& sink, int day, int tick, int tph,
                     stats::Rng& rng, const DayPlan& today);
  /// Session/flow bodies draw from the caller's stream: the batch path
  /// passes the run-long rng_ (bit-identical to the pre-arrival generator),
  /// the open-loop path passes the per-tick stream.
  template <typename Sink>
  void run_session(stats::Rng& rng, Sink& sink, flowmon::Timestamp t,
                   size_t service_idx, bool background, const DayPlan& day);
  template <typename Sink>
  void run_internal(stats::Rng& rng, Sink& sink, flowmon::Timestamp t,
                    flowmon::Timestamp window, const DayPlan& day);
  /// The background-chatter service pick (with its single re-roll toward
  /// background-profile services).
  size_t background_service(stats::Rng& rng);
  [[nodiscard]] bool is_away(int day) const;
  /// The timeline plan governing `day`: the config's provider when it
  /// carries one, else kStaticDayPlan. Evaluated once per simulated day by
  /// run().
  [[nodiscard]] DayPlan plan(int day) const;

  /// Per-profile flow count and byte sampling, off the caller's stream.
  int flows_per_session(stats::Rng& rng, TrafficProfile p);
  FlowSpec sample_flow(stats::Rng& rng, TrafficProfile p);

  net::IpAddr device_addr(int device, net::Family family,
                          int prefix_epoch = 0) const;
  std::uint16_t next_port() { return static_cast<std::uint16_t>(20000 + (port_counter_++ % 40000)); }

  const ServiceCatalog* catalog_;
  ResidenceConfig cfg_;
  stats::Rng rng_;
  stats::DiscreteSampler service_sampler_;
  HappyEyeballsConfig he_cfg_;
  SimulationStats stats_;
  int device_count_;
  std::uint32_t residence_id_;
  std::uint64_t port_counter_ = 0;
  /// v4 WAN flows opened so far in the current simulated day, charged
  /// against DayPlan::cgn_port_budget; reset at each day boundary by run().
  std::int64_t cgn_ports_used_ = 0;
};

}  // namespace nbv6::traffic
