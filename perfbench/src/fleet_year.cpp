// fleet_year: the batch pass graph at a one-year horizon.
//
// Input: examples/large_horizon.cfg (512 homes x 365 days, batch arrivals,
// all five timeline kinds, lazy plans) with its seed offset by --seed.
// Timed: core::make_scenario_pipeline + Pipeline::run, uncached, on N lanes
// (a pool of N - 1 workers plus the calling thread).
//
// The traced run replaces the pipeline by the same stage functions called
// one by one (sample, timeline, simulate, metrics, report, window_panel),
// then splits `simulate` from outside on a fixed sample of residences:
//   1. stepped run_day into a FlowEventBuffer cleared every day: generation;
//   2. run into a bare FlatConntrack: generation + conntrack;
//   3. run into a FlatConntrack with a FlowMonitor attached: + ingest;
// conntrack and ingest are the differences (labelled as computed). The
// retained residence monitors are then re-folded with FlowMonitor::merge.
// Cross-checks prove the parts measure the same work as the whole.
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "chain.h"
#include "core/fleet_analysis.h"
#include "core/scenario_pipeline.h"
#include "engine/firehose.h"
#include "engine/flat_conntrack.h"
#include "engine/fleet.h"
#include "engine/pipeline.h"
#include "engine/thread_pool.h"
#include "traffic/service_catalog.h"

namespace perfbench {

namespace {

using namespace nbv6;

struct Inputs {
  traffic::ServiceCatalog catalog = traffic::build_paper_catalog();
  engine::FleetConfig cfg;
  std::unique_ptr<engine::ThreadPool> pool;
};

// Scenario file, relative to the root of the source tree.
constexpr const char* kConfig = "examples/large_horizon.cfg";
// Residences the traced run splits `simulate` on: every stride-th home.
constexpr int kSampleResidences = 64;

std::unique_ptr<Inputs> make_inputs(const Options& o) {
  auto in = std::make_unique<Inputs>();
  std::string error;
  auto cfg = engine::FleetConfig::load(kConfig, &error);
  if (!cfg) throw std::runtime_error(std::string(kConfig) + ": " + error);
  in->cfg = *cfg;
  in->cfg.seed = in->cfg.seed.get() + o.seed;
  if (o.tiny) {
    in->cfg.residences = 16;
    in->cfg.days = 60;
  }
  if (o.lanes > 1) in->pool = std::make_unique<engine::ThreadPool>(o.lanes - 1);
  return in;
}

std::string digest_of(const engine::FleetConfig& cfg,
                      const engine::FleetResult& result,
                      const core::FleetStatsReport& report,
                      const core::GroupComparison& panel) {
  return hex64(fnv1a(canonical_text(cfg, result, report, panel)));
}

// What the first operation produced; every later one must repeat it.
struct FirstOutputs {
  bool seen = false;
  traffic::SimulationStats totals;
  flowmon::FamilySplit external;
  std::string digest;
};

// Output checks every fleet_year operation gets, for any seed.
void check_fleet(Report& rep, std::size_t op, const engine::FleetResult& r,
                 FirstOutputs& first) {
  if (!first.seen) {
    first.seen = true;
    first.totals = r.totals;
    first.external = r.fleet.totals(flowmon::Scope::external);
  }
  rep.check(op, "fleet totals repeat the first operation's",
            same_counters(r.totals, first.totals) &&
                r.fleet.totals(flowmon::Scope::external) == first.external);

  traffic::SimulationStats sum;
  for (const auto& res : r.residences) sum += res.stats;
  rep.check(op, "fleet totals == sum of residence stats",
            same_counters(sum, r.totals));

  traffic::DaySessionStats days;
  for (const auto& d : r.totals.daily) days += d;
  rep.check(op, "sum of daily session stats == horizon totals",
            days.sessions == r.totals.sessions &&
                days.he_failures == r.totals.he_failures &&
                days.outage_suppressed == r.totals.outage_suppressed &&
                days.service_outage_failed ==
                    r.totals.service_outage_failed &&
                days.cgn_failures == r.totals.cgn_failures);
  rep.check(op, "fleet simulated some flows", r.totals.flows > 0);
}

// The canonical digest costs a copy of the whole result, so untimed runs
// take it on the first operation only (traced runs on every operation).
// All operations share that output, so a digest that misses the pinned one
// fails the run: every operation.
void check_digest(Report& rep, std::size_t op, const Options& o,
                  const std::string& digest, FirstOutputs& first) {
  if (first.digest.empty()) {
    first.digest = digest;
    rep.set_digest(digest);
    if (!o.expect_digest.empty())
      rep.check_run("digest " + digest + " == pinned " + o.expect_digest,
                    digest == o.expect_digest);
  }
  rep.check(op, "digest " + digest + " repeats the first operation's",
            digest == first.digest);
}

// The traced chain's outputs, with the population kept alive beside them
// as a pipeline keeps its bound resources.
struct Traced {
  engine::SampledFleet population;
  ChainOutputs out;
};

struct SimulateSplit {
  double generate = 0, with_conntrack = 0, with_monitor = 0, merge = 0;
  int residences = 0;
};

// Outside-in split of `simulate` on a fixed residence sample, 1 lane.
SimulateSplit split_simulate(const Inputs& in, const ChainOutputs& c,
                             Report& rep, std::size_t op) {
  SimulateSplit s;
  const int n = static_cast<int>(c.planned.configs.size());
  const int stride = n > kSampleResidences ? n / kSampleResidences : 1;
  for (int i = 0; i < n && s.residences < kSampleResidences; i += stride) {
    const auto& rc = c.planned.configs[static_cast<std::size_t>(i)];
    const auto& whole = c.result.residences[static_cast<std::size_t>(i)];
    ++s.residences;
    {
      traffic::ResidenceSimulator sim(in.catalog, rc);
      engine::FlowEventBuffer buffer;
      const auto t = Clock::now();
      sim.begin_run();
      for (int d = 0; d < rc.days; ++d) {
        sim.run_day(buffer, d);
        buffer.clear();
      }
      s.generate += since(t);
      rep.check(op, "generation-only run of R" + std::to_string(i) +
                        " == its simulate_fleet stats",
                same_counters(sim.stats(), whole.stats));
    }
    {
      traffic::ResidenceSimulator sim(in.catalog, rc);
      engine::FlatConntrack table;
      const auto t = Clock::now();
      sim.run(table);
      s.with_conntrack += since(t);
    }
    {
      traffic::ResidenceSimulator sim(in.catalog, rc);
      flowmon::FlowMonitor monitor;  // outlives the table it listens to
      engine::FlatConntrack table;
      monitor.attach(table);
      const auto t = Clock::now();
      const auto stats = sim.run(table);
      s.with_monitor += since(t);
      rep.check(op, "monitor-attached run of R" + std::to_string(i) +
                        " == its simulate_fleet stats",
                same_counters(stats, whole.stats) &&
                    monitor.totals(flowmon::Scope::external) ==
                        whole.monitor.totals(flowmon::Scope::external) &&
                    monitor.totals(flowmon::Scope::internal) ==
                        whole.monitor.totals(flowmon::Scope::internal) &&
                    monitor.new_events() == whole.monitor.new_events());
    }
  }

  flowmon::FlowMonitor refold;
  const auto t = Clock::now();
  for (const auto& r : c.result.residences) refold.merge(r.monitor);
  s.merge = since(t);
  const auto& fleet = c.result.fleet;
  rep.check(op, "re-folded monitors == FleetResult::fleet",
            refold.totals(flowmon::Scope::external) ==
                    fleet.totals(flowmon::Scope::external) &&
                refold.totals(flowmon::Scope::internal) ==
                    fleet.totals(flowmon::Scope::internal) &&
                refold.daily(flowmon::Scope::external) ==
                    fleet.daily(flowmon::Scope::external) &&
                refold.hourly_external() == fleet.hourly_external() &&
                refold.new_events() == fleet.new_events() &&
                refold.destroy_events() == fleet.destroy_events());
  return s;
}

}  // namespace

int run_fleet_year(const Options& o, Report& rep) {
  const auto in = make_inputs(o);
  if (inputs_ready(o)) return 0;
  rep.check_thread_budget(o);
  rep.note("fleet_year: " + std::to_string(in->cfg.residences.get()) +
           " homes x " + std::to_string(in->cfg.days.get()) + " days, seed " +
           std::to_string(in->cfg.seed.get()) + ", " +
           std::to_string(o.lanes) + " lanes");

  std::vector<double> walls;
  std::vector<double> traced_walls;
  double hwm = 0.0;
  FirstOutputs first;
  PassSpans layers;
  SimulateSplit split;
  traffic::SimulationStats totals;
  std::uint64_t new_events = 0, destroy_events = 0;

  // Untraced: the pipeline. Traced runs alternate traced and untraced
  // iterations, so the overhead compares neighbours.
  auto untraced = [&] {
    fresh_heap();
    const std::size_t op = rep.begin_op();
    const auto t0 = Clock::now();
    engine::Pipeline pipe = core::make_scenario_pipeline(in->cfg, in->catalog);
    pipe.run(nullptr, in->pool.get());
    walls.push_back(since(t0));
    hwm = std::max(hwm, peak_rss_mb());

    const auto& result = pipe.output<engine::FleetResult>("fleet_result");
    check_fleet(rep, op, result, first);
    if (first.digest.empty() || o.trace)
      check_digest(
          rep, op, o,
          digest_of(in->cfg, result,
                    pipe.output<core::FleetStatsReport>("stats_report"),
                    pipe.output<core::GroupComparison>("window_panel")),
          first);
    totals = result.totals;
    new_events = result.fleet.new_events();
    destroy_events = result.fleet.destroy_events();
  };
  auto traced = [&] {
    fresh_heap();
    const std::size_t op = rep.begin_op();
    auto chain = std::make_unique<Traced>();
    PassSpans spans;
    const auto t0 = Clock::now();
    chain->population = traced_sample(in->catalog, in->cfg, spans);
    traced_chain(in->catalog, in->cfg, chain->population, in->pool.get(),
                 chain->out, spans);
    traced_walls.push_back(since(t0));
    const ChainOutputs& c = chain->out;
    check_fleet(rep, op, c.result, first);
    check_digest(rep, op, o, digest_of(in->cfg, c.result, c.report, c.panel),
                 first);
    if (traced_walls.size() == 1) {
      layers = spans;
      split = split_simulate(*in, c, rep, op);
    }
  };

  repeat_for(o.seconds, o.trace ? 2 : 1, [&](int k) {
    if (o.trace && k % 2 == 0) {
      traced();
    } else {
      untraced();
    }
  });
  rep.check_thread_budget(o);

  rep.fastest_metric("wall_s", walls, "s");
  rep.metric("peak_rss_mb", hwm, "MB");
  if (!o.trace) return 0;

  rep.metric("engine.sample.s", layers.sample, "s");
  rep.metric("engine.timeline.s", layers.timeline, "s");
  rep.metric("engine.simulate.s", layers.simulate, "s");
  rep.metric("engine.simulate.rss_mb", layers.simulate_rss, "MB");
  rep.metric("core.metrics.s", layers.metrics, "s");
  rep.metric("core.report.s", layers.report, "s");
  rep.metric("core.window_panel.s", layers.panel, "s");
  rep.metric("traffic.generate.s", split.generate, "s");
  rep.metric("engine.conntrack.s", split.with_conntrack - split.generate, "s");
  rep.metric("flowmon.ingest.s", split.with_monitor - split.with_conntrack,
             "s");
  rep.metric("flowmon.merge.s", split.merge, "s");
  rep.metric("traffic.sessions", static_cast<double>(totals.sessions),
             "count");
  rep.metric("traffic.flows", static_cast<double>(totals.flows), "count");
  rep.metric("flowmon.new_events", static_cast<double>(new_events), "count");
  rep.metric("flowmon.destroy_events", static_cast<double>(destroy_events),
             "count");
  rep.metric("trace.overhead_s", fastest(traced_walls) - fastest(walls), "s");
  rep.note("simulate split on " + std::to_string(split.residences) +
           " residences at 1 lane: conntrack and ingest are computed as "
           "differences of three runs");
  return 0;
}

}  // namespace perfbench
