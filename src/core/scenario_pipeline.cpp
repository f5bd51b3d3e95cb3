#include "core/scenario_pipeline.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "engine/run_spec.h"

namespace nbv6::core {

namespace {

using engine::DigestBuilder;
using engine::FleetConfig;
using engine::Pass;
using engine::PassContext;
using engine::Pipeline;
using engine::SampledFleet;

// Holm-correction level of the report and the window panel. Both digests
// fold it, so it stays part of their cache keys.
constexpr double kAlpha = 0.05;

std::uint64_t panel_digest(const FleetConfig& cfg) {
  const PanelWindows w = panel_windows(cfg.days);
  return DigestBuilder()
      .i64(w.pre.first)
      .i64(w.pre.last)
      .i64(w.post.first)
      .i64(w.post.last)
      .u64(static_cast<std::uint64_t>(FleetGroup::all))
      .f64(kAlpha)
      .value();
}

// Everything sample_stage reads plus the catalog content. Excludes the
// timeline: it cannot change what is sampled.
std::uint64_t population_digest(const FleetConfig& cfg,
                                const traffic::ServiceCatalog& catalog) {
  return DigestBuilder()
      .str("population")
      .i64(cfg.residences)
      .i64(cfg.days)
      .u64(cfg.seed)
      .f64(cfg.dual_stack_isp_frac)
      .f64(cfg.broken_v6_frac)
      .f64(cfg.heavy_streamer_frac)
      .f64(cfg.background_only_frac)
      .f64(cfg.opt_out_frac)
      .f64(cfg.absence_prob)
      .f64(cfg.activity_scale_min)
      .f64(cfg.activity_scale_max)
      .u64(static_cast<std::uint64_t>(cfg.arrival->mode))
      .i64(cfg.arrival->ticks_per_hour)
      .u64(catalog.content_digest())
      .value();
}

// Events (every field), master seed and horizon. The u64(0) fills the slot
// of the retired plan-mode switch, so every committed scenario's timeline
// digest (and with it every downstream cache key) is unchanged.
std::uint64_t timeline_digest(const FleetConfig& cfg) {
  DigestBuilder db;
  db.str("timeline").u64(cfg.seed).i64(cfg.days).u64(0);
  db.u64(cfg.timeline->events.size());
  for (const auto& ev : cfg.timeline->events) {
    db.u64(static_cast<std::uint64_t>(ev.kind))
        .i64(ev.start_day)
        .i64(ev.end_day)
        .f64(ev.fraction)
        .f64(ev.amplitude)
        .i64(ev.period_days)
        .i64(ev.duration_days)
        .i64(ev.service)
        .i64(ev.port_budget)
        .f64(ev.turnover_rate)
        .f64(ev.mult)
        .i64(ev.hour)
        .i64(ev.hour_span);
  }
  return db.value();
}

Pass sample_pass(const FleetConfig& cfg,
                 const traffic::ServiceCatalog& catalog) {
  Pass p;
  p.name = "sample";
  p.outputs = {"population"};
  p.config_digest = population_digest(cfg, catalog);
  p.run = [cfg, &catalog](PassContext& ctx) {
    ctx.out("population", engine::sample_stage(cfg, catalog));
  };
  return p;
}

Pass timeline_pass(const FleetConfig& cfg) {
  Pass p;
  p.name = "timeline";
  p.inputs = {"population"};
  p.outputs = {"planned_fleet"};
  p.config_digest = timeline_digest(cfg);
  p.run = [cfg](PassContext& ctx) {
    // Inputs are immutable; plan onto a copy. An empty timeline still
    // re-binds the copy so downstream passes have one resource to consume.
    SampledFleet planned = ctx.in<SampledFleet>("population");
    engine::apply_timeline(planned, cfg.timeline, cfg.seed, cfg.days);
    ctx.out("planned_fleet", std::move(planned));
  };
  return p;
}

Pass simulate_pass(const traffic::ServiceCatalog& catalog) {
  Pass p;
  p.name = "simulate";
  p.inputs = {"planned_fleet"};
  p.outputs = {"fleet_result"};
  p.config_digest = catalog.content_digest();
  // Residence shards go through the run's cache too (engine::shard_key), so
  // a what-if variant re-simulates only the homes its timeline changes.
  p.run = [&catalog](PassContext& ctx) {
    ctx.out("fleet_result",
            engine::simulate_fleet(catalog,
                                   ctx.in<SampledFleet>("planned_fleet"),
                                   ctx.pool(), ctx.cache()));
  };
  return p;
}

Pass report_pass() {
  Pass p;
  p.name = "report";
  p.inputs = {"fleet_result"};
  p.outputs = {"stats_report"};
  p.config_digest = DigestBuilder().f64(kAlpha).value();
  p.run = [](PassContext& ctx) {
    ctx.out("stats_report",
            fleet_stats_report(ctx.in<engine::FleetResult>("fleet_result"),
                               ctx.pool(), kAlpha));
  };
  return p;
}

Pass window_panel_pass(const FleetConfig& cfg) {
  Pass p;
  p.name = "window_panel";
  p.inputs = {"fleet_result"};
  p.outputs = {"window_panel"};
  p.config_digest = panel_digest(cfg);
  p.run = [cfg](PassContext& ctx) {
    const auto metrics = default_fleet_metrics();
    const PanelWindows w = panel_windows(cfg.days);
    ctx.out("window_panel",
            compare_windows(ctx.in<engine::FleetResult>("fleet_result"),
                            metrics, w.pre, w.post, FleetGroup::all,
                            ctx.pool(), kAlpha));
  };
  return p;
}

// The standard chain in registration order: the one list both
// make_scenario_pipeline and the audit build from. Factories rather than
// passes, because the audit builds each pass under its own tracker scope.
std::vector<std::function<Pass()>> scenario_pass_factories(
    const FleetConfig& cfg, const traffic::ServiceCatalog& catalog) {
  return {
      [&cfg, &catalog] { return sample_pass(cfg, catalog); },
      [&cfg] { return timeline_pass(cfg); },
      [&catalog] { return simulate_pass(catalog); },
      [] { return report_pass(); },
      [&cfg] { return window_panel_pass(cfg); },
  };
}

}  // namespace

Pipeline make_scenario_pipeline(const FleetConfig& cfg,
                                const traffic::ServiceCatalog& catalog) {
  Pipeline pipe;
  for (const auto& make : scenario_pass_factories(cfg, catalog))
    pipe.add(make());
  return pipe;
}

std::vector<std::string> scenario_transient_resources() {
  return {"population", "planned_fleet"};
}

std::vector<PassReadAudit> audit_scenario_passes(
    const FleetConfig& cfg, const traffic::ServiceCatalog& catalog) {
  auto audits = std::make_shared<std::vector<PassReadAudit>>();
  Pipeline pipe;
  for (const auto& make : scenario_pass_factories(cfg, catalog)) {
    // Digest read set: build the pass under its own tracker scope. A
    // factory reads config only to compute its digest (its by-value capture
    // of cfg is a copy, which records nothing), so the scope sees exactly
    // the digest slice the cache key covers.
    Pass p;
    {
      engine::ConfigReadTracker::Scope scope;
      p = make();
      audits->push_back({p.name, scope.reads(), {}});
    }
    // Run read set: wrap the body in a tracker scope of its own.
    p.run = [inner = std::move(p.run), audits,
             i = audits->size() - 1](PassContext& ctx) {
      engine::ConfigReadTracker::Scope scope;
      inner(ctx);
      (*audits)[i].run_reads = scope.reads();
    };
    pipe.add(std::move(p));
  }
  // Uncached (every pass executes) and poolless (every read lands on this
  // thread, where the scopes are active).
  pipe.run(/*cache=*/nullptr, /*pool=*/nullptr);
  return *audits;
}

engine::ConfigReadSet uncovered_config_reads(const PassReadAudit& audit) {
  return audit.run_reads & ~audit.digest_reads;
}

std::string describe_read_set(const engine::ConfigReadSet& reads) {
  std::string out;
  for (std::size_t i = 0; i < engine::kConfigFieldCount; ++i) {
    if (!reads.test(i)) continue;
    if (!out.empty()) out += ", ";
    out += to_string(static_cast<engine::ConfigField>(i));
  }
  return out;
}

}  // namespace nbv6::core
