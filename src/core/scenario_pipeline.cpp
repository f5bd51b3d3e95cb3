#include "core/scenario_pipeline.h"

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
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
using engine::PipelineValue;
using engine::SampledFleet;

// The pre/post windows every scenario panel compares: the horizon's two
// halves (the binaries that print the window panel label it with the same
// split).
DayWindow pre_window(const FleetConfig& cfg) { return {0, cfg.days / 2 - 1}; }
DayWindow post_window(const FleetConfig& cfg) {
  return {cfg.days / 2, cfg.days - 1};
}

std::uint64_t metrics_digest(const std::vector<FleetMetric>& metrics) {
  DigestBuilder db;
  db.u64(metrics.size());
  for (FleetMetric m : metrics) db.u64(static_cast<std::uint64_t>(m));
  return db.value();
}

std::uint64_t panel_digest(const FleetConfig& cfg, double alpha) {
  const DayWindow pre = pre_window(cfg);
  const DayWindow post = post_window(cfg);
  return DigestBuilder()
      .i64(pre.first)
      .i64(pre.last)
      .i64(post.first)
      .i64(post.last)
      .u64(static_cast<std::uint64_t>(FleetGroup::all))
      .f64(alpha)
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
  p.run = [&catalog](PassContext& ctx) {
    ctx.out("fleet_result",
            engine::simulate_fleet(catalog,
                                   ctx.in<SampledFleet>("planned_fleet"),
                                   ctx.pool()));
  };
  return p;
}

Pass metrics_pass() {
  Pass p;
  p.name = "metrics";
  p.inputs = {"fleet_result"};
  p.outputs = {"metric_matrix"};
  p.config_digest = metrics_digest(default_fleet_metrics());
  p.run = [](PassContext& ctx) {
    const auto metrics = default_fleet_metrics();
    ctx.out("metric_matrix",
            extract_metrics(ctx.in<engine::FleetResult>("fleet_result"),
                            metrics, ctx.pool()));
  };
  return p;
}

Pass report_pass(double alpha) {
  Pass p;
  p.name = "report";
  p.inputs = {"fleet_result"};
  p.outputs = {"stats_report"};
  p.config_digest = DigestBuilder().f64(alpha).value();
  p.run = [alpha](PassContext& ctx) {
    ctx.out("stats_report",
            fleet_stats_report(ctx.in<engine::FleetResult>("fleet_result"),
                               ctx.pool(), alpha));
  };
  return p;
}

Pass window_panel_pass(const FleetConfig& cfg, double alpha) {
  Pass p;
  p.name = "window_panel";
  p.inputs = {"fleet_result"};
  p.outputs = {"window_panel"};
  p.config_digest = panel_digest(cfg, alpha);
  p.run = [cfg, alpha](PassContext& ctx) {
    const auto metrics = default_fleet_metrics();
    ctx.out("window_panel",
            compare_windows(ctx.in<engine::FleetResult>("fleet_result"),
                            metrics, pre_window(cfg), post_window(cfg),
                            FleetGroup::all, ctx.pool(), alpha));
  };
  return p;
}

// One file-sink pass: renders into <dir>/<tag>_<suffix> and outputs the
// written path. Uncached — a sink exists for its side effect, so it
// re-executes every run (rewriting the file from the cached upstream
// values costs nothing compared to simulation).
Pass file_sink_pass(std::string name, std::string input, std::string output,
                    std::string path,
                    std::function<void(std::FILE*, const PipelineValue&)>
                        render) {
  Pass p;
  p.name = std::move(name);
  p.inputs = {input};
  p.outputs = {output};
  p.cache_outputs = false;
  p.config_digest = DigestBuilder().str(path).value();
  p.run = [path = std::move(path), input = std::move(input),
           output = std::move(output),
           render = std::move(render)](PassContext& ctx) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
      throw std::runtime_error("cannot write '" + path + "'");
    render(f, ctx.input_value(input));
    std::fclose(f);
    ctx.out(output, path);
  };
  return p;
}

}  // namespace

Pipeline make_scenario_pipeline(const FleetConfig& cfg,
                                const traffic::ServiceCatalog& catalog,
                                const ScenarioPassOptions& opts) {
  Pipeline pipe;
  pipe.add(sample_pass(cfg, catalog))
      .add(timeline_pass(cfg))
      .add(simulate_pass(catalog))
      .add(metrics_pass())
      .add(report_pass(opts.alpha))
      .add(window_panel_pass(cfg, opts.alpha));
  if (opts.sink_dir.empty()) return pipe;

  const std::string base = opts.sink_dir + "/" + opts.scenario_tag;
  pipe.add(file_sink_pass(
      "panel_tsv", "window_panel", "panel_tsv_path", base + "_panel.tsv",
      [](std::FILE* f, const PipelineValue& v) {
        write_panel_tsv(f, v.get<GroupComparison>());
      }));
  pipe.add(file_sink_pass(
      "cdf_csv", "stats_report", "cdf_csv_path", base + "_cdf.csv",
      [](std::FILE* f, const PipelineValue& v) {
        write_cdf_csv(f, v.get<FleetStatsReport>().distributions);
      }));
  pipe.add(file_sink_pass(
      "summary_csv", "stats_report", "summary_csv_path", base + "_summary.csv",
      [](std::FILE* f, const PipelineValue& v) {
        write_summary_csv(f, v.get<FleetStatsReport>().distributions);
      }));
  return pipe;
}

std::vector<std::string> scenario_transient_resources() {
  return {"population", "planned_fleet"};
}

std::vector<PassReadAudit> audit_scenario_passes(
    const FleetConfig& cfg, const traffic::ServiceCatalog& catalog,
    const ScenarioPassOptions& opts) {
  // Per-pass digest read sets: build each standard pass under its own
  // tracker scope. A factory reads config only to compute its digest (its
  // by-value capture of cfg is a copy, which records nothing), so the
  // scope sees exactly the digest slice the cache key covers.
  const std::function<Pass()> factories[] = {
      [&] { return sample_pass(cfg, catalog); },
      [&] { return timeline_pass(cfg); },
      [&] { return simulate_pass(catalog); },
      [] { return metrics_pass(); },
      [&] { return report_pass(opts.alpha); },
      [&] { return window_panel_pass(cfg, opts.alpha); },
  };
  std::vector<Pass> passes;
  auto audits = std::make_shared<std::vector<PassReadAudit>>();
  for (const auto& make : factories) {
    engine::ConfigReadTracker::Scope scope;
    passes.push_back(make());
    audits->push_back({passes.back().name, scope.reads(), {}});
  }

  // Per-pass run read sets: wrap each body in a tracker scope. The
  // pipeline runs uncached (every pass executes) and poolless (every read
  // lands on this thread, where the scope is active).
  Pipeline pipe;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    Pass p = std::move(passes[i]);
    auto inner = std::move(p.run);
    p.run = [inner = std::move(inner), audits, i](PassContext& ctx) {
      engine::ConfigReadTracker::Scope scope;
      inner(ctx);
      (*audits)[i].run_reads = scope.reads();
    };
    pipe.add(std::move(p));
  }
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

void replace_scenario_config(Pipeline& pipe, const FleetConfig& cfg,
                             const traffic::ServiceCatalog& catalog,
                             const ScenarioPassOptions& opts) {
  pipe.replace(sample_pass(cfg, catalog));
  pipe.replace(timeline_pass(cfg));
  pipe.replace(window_panel_pass(cfg, opts.alpha));
}

}  // namespace nbv6::core
