// firehose_stream: the streaming path, at N lanes and at 1 lane.
//
// Input: 256 homes x 60 days, poisson arrivals at 12 ticks/h, seed from
// --seed. Timed: engine::Firehose::run into a counting, digesting sink, once
// on N lanes and once on 1 lane per iteration. Same generator as the batch
// path, but no conntrack and no monitor (the firehose records into
// FlowEventBuffer) plus canonical emission on the calling thread.
//
// The traced run reads the clock in the sink at each day's first flow and
// every kReadEvery-th flow. Gaps between days count as generation, spans
// within a day as emission (each day's unread tail is extrapolated at that
// day's rate). Reading the clock on every flow would inflate emission.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/firehose.h"
#include "engine/fleet.h"
#include "net/flow.h"
#include "traffic/arrival.h"
#include "traffic/service_catalog.h"

namespace perfbench {

namespace {

using namespace nbv6;

struct Inputs {
  traffic::ServiceCatalog catalog = traffic::build_paper_catalog();
  engine::FleetConfig cfg;
  std::unique_ptr<engine::Firehose> wide;    // N lanes
  std::unique_ptr<engine::Firehose> single;  // 1 lane
};

std::unique_ptr<Inputs> make_inputs(const Options& o) {
  auto in = std::make_unique<Inputs>();
  in->cfg.residences = o.tiny ? 16 : 256;
  in->cfg.days = o.tiny ? 5 : 60;
  in->cfg.seed = 20260901 + o.seed;
  in->cfg.arrival->mode = traffic::ArrivalMode::poisson;
  in->cfg.arrival->ticks_per_hour = 12;
  in->wide = std::make_unique<engine::Firehose>(in->catalog, o.lanes);
  in->single = std::make_unique<engine::Firehose>(in->catalog, 1);
  return in;
}

// Order-sensitive fold of every emitted field: equal digests mean equal
// streams, record for record.
struct StreamDigest {
  std::uint64_t flows = 0;
  std::uint64_t h = 0x84222325cbf29ce4ull;

  void add(const engine::FlowEvent& ev) {
    ++flows;
    fold(net::fused_flow_hash(ev.key));
    fold((std::uint64_t{ev.residence} << 32) ^
         static_cast<std::uint32_t>(ev.tick));
    fold(static_cast<std::uint64_t>(ev.start) * 0x9E3779B97F4A7C15ull ^
         static_cast<std::uint64_t>(ev.end));
    fold(ev.bytes_out * 31 + ev.bytes_in +
         static_cast<std::uint64_t>(ev.scope));
  }
  void fold(std::uint64_t x) {
    h ^= x + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  }
};

constexpr std::uint64_t kReadEvery = 4096;

// Sink-side clock: generation vs emission time of one N-lane stream.
struct EmitClock {
  StreamDigest digest;
  Clock::time_point start;
  Clock::time_point day_first;
  Clock::time_point last_read;
  Clock::time_point prev_end;  // estimated end of the previous day's emission
  std::uint64_t day_flows = 0;
  std::uint64_t flows_at_read = 0;
  int day = -1;
  double generate = 0.0;
  double emit = 0.0;

  void begin() { start = prev_end = Clock::now(); }
  void operator()(const engine::FlowEvent& ev) {
    digest.add(ev);
    if (ev.day != day) {
      const auto t = Clock::now();
      if (day >= 0) close_day();
      generate += std::chrono::duration<double>(t - prev_end).count();
      day = ev.day;
      day_first = last_read = t;
      day_flows = flows_at_read = 0;
    } else if ((day_flows & (kReadEvery - 1)) == 0) {
      last_read = Clock::now();
      flows_at_read = day_flows;
    }
    ++day_flows;
  }
  void close_day() {
    const double read =
        std::chrono::duration<double>(last_read - day_first).count();
    const double per_flow =
        flows_at_read == 0 ? 0.0 : read / static_cast<double>(flows_at_read);
    const double span =
        read + per_flow * static_cast<double>(day_flows - flows_at_read);
    emit += span;
    prev_end = day_first + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(span));
  }
  void finish() {
    const auto t = Clock::now();
    if (day >= 0) close_day();
    generate += std::chrono::duration<double>(t - prev_end).count();
  }
};

}  // namespace

int run_firehose_stream(const Options& o, Report& rep) {
  const auto in = make_inputs(o);
  if (inputs_ready(o)) return 0;
  rep.check_thread_budget(o);
  rep.note("firehose_stream: " + std::to_string(in->cfg.residences.get()) +
           " homes x " + std::to_string(in->cfg.days.get()) +
           " days, poisson 12 ticks/h, seed " +
           std::to_string(in->cfg.seed.get()) + ", " +
           std::to_string(in->wide->lanes()) + " lanes then 1 lane");

  std::vector<double> walls, wide_s, single_s, traced_wide_s;
  double hwm = 0.0;
  std::uint64_t flows = 0, first_digest = 0;
  traffic::SimulationStats totals;
  EmitClock traced_clock;

  auto untraced = [&] {
    fresh_heap();
    const std::size_t op = rep.begin_op();
    StreamDigest dn, d1;
    auto t0 = Clock::now();
    const auto rn = in->wide->run(
        in->cfg, [&](const engine::FlowEvent& ev) { dn.add(ev); });
    const double tn = since(t0);
    t0 = Clock::now();
    const auto r1 = in->single->run(
        in->cfg, [&](const engine::FlowEvent& ev) { d1.add(ev); });
    const double t1 = since(t0);
    walls.push_back(tn + t1);
    wide_s.push_back(tn);
    single_s.push_back(t1);
    hwm = std::max(hwm, peak_rss_mb());

    rep.check(op, "1-lane and N-lane stream digests equal",
              dn.h == d1.h && dn.flows == d1.flows);
    rep.check(op, "sink saw every flow the firehose reports",
              dn.flows == rn.flows && d1.flows == r1.flows && rn.flows > 0);
    rep.check(op, "1-lane and N-lane generator totals equal",
              same_counters(rn.totals, r1.totals));
    if (first_digest == 0) first_digest = dn.h;
    rep.check(op, "stream digest repeats the first iteration's",
              dn.h == first_digest);
    flows = rn.flows;
    totals = rn.totals;
  };
  auto traced = [&] {
    fresh_heap();
    const std::size_t op = rep.begin_op();
    EmitClock clock;
    clock.begin();
    const auto r = in->wide->run(
        in->cfg, [&](const engine::FlowEvent& ev) { clock(ev); });
    clock.finish();
    traced_wide_s.push_back(
        std::chrono::duration<double>(Clock::now() - clock.start).count());
    rep.check(op, "traced sink saw every flow", clock.digest.flows == r.flows);
    if (first_digest == 0) first_digest = clock.digest.h;
    rep.check(op, "traced stream digest repeats the first iteration's",
              clock.digest.h == first_digest);
    if (traced_wide_s.size() == 1) traced_clock = clock;
  };

  repeat_for(o.seconds, o.trace ? 2 : 1, [&](int k) {
    if (o.trace && k % 2 == 0) {
      traced();
    } else {
      untraced();
    }
  });
  rep.check_thread_budget(o);

  const double wide = fastest(wide_s);
  const double single = fastest(single_s);
  rep.samples("N-lane stream", wide_s, "s");
  rep.samples("1-lane stream", single_s, "s");
  rep.fastest_metric("wall_s", walls, "s");
  rep.metric("peak_rss_mb", hwm, "MB");
  rep.metric("flows_per_s", static_cast<double>(flows) / wide, "flows/s");
  rep.metric("flows_per_s_1lane", static_cast<double>(flows) / single,
             "flows/s");
  if (!o.trace) return 0;

  const double gen = traced_clock.generate;
  const double emit = traced_clock.emit;
  rep.metric("engine.firehose.generate.s", gen, "s");
  rep.metric("engine.firehose.emit.s", emit, "s");
  rep.metric("engine.firehose.emit_share", emit / (gen + emit), "ratio");
  rep.metric("engine.firehose.lane_scaling", single / wide, "x");
  rep.metric("engine.firehose.flows", static_cast<double>(flows), "count");
  rep.metric("engine.firehose.flows_per_s", static_cast<double>(flows) / wide,
             "flows/s");
  rep.metric("engine.firehose.flows_per_s_1lane",
             static_cast<double>(flows) / single, "flows/s");
  rep.metric("traffic.sessions", static_cast<double>(totals.sessions),
             "count");
  rep.metric("traffic.flows", static_cast<double>(totals.flows), "count");
  rep.metric("trace.overhead_s", fastest(traced_wide_s) - wide, "s");
  rep.note("firehose split at " + std::to_string(in->wide->lanes()) +
           " lanes: clock read at day boundaries and every " +
           std::to_string(kReadEvery) + "th flow");
  return 0;
}

}  // namespace perfbench
