#include "testutil.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/scenario_pipeline.h"
#include "engine/pipeline.h"
#include "engine/run_spec.h"

namespace nbv6::testutil {

namespace {

// FNV-1a over explicit integer state: stable across platforms/compilers
// (unlike hashing doubles' text or std::hash).
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

void append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out.append(buf, static_cast<size_t>(std::min<int>(n, sizeof buf - 1)));
}

// %.17g: shortest text that still round-trips any double exactly, so two
// serializations are equal iff every double is bit-identical.
void append_d(std::string& out, double v) {
  append(out, "%.17g", v);
}

void append_split(std::string& out, const char* label,
                  const flowmon::FamilySplit& s) {
  append(out,
         "%s v4_bytes=%" PRIu64 " v6_bytes=%" PRIu64 " v4_flows=%" PRIu64
         " v6_flows=%" PRIu64 "\n",
         label, s.v4.bytes, s.v6.bytes, s.v4.flows, s.v6.flows);
}

void append_panel(std::string& out, const char* label,
                  const core::GroupComparison& cmp) {
  append(out, "panel %s %s vs %s rows=%zu\n", label,
         core::to_string(cmp.group_a), core::to_string(cmp.group_b),
         cmp.rows.size());
  for (const auto& r : cmp.rows) {
    append(out, "  row %s paired=%d n_a=%zu n_b=%zu median_a=", r.metric.c_str(),
           r.paired ? 1 : 0, r.n_a, r.n_b);
    append_d(out, r.median_a);
    out += " median_b=";
    append_d(out, r.median_b);
    out += " z=";
    append_d(out, r.z);
    out += " effect_r=";
    append_d(out, r.effect_r);
    out += " p_raw=";
    append_d(out, r.p_raw);
    out += " p_holm=";
    append_d(out, r.p_holm);
    append(out, " significant=%d\n", r.significant ? 1 : 0);
  }
}

// apply_timeline's reference counterpart: providers that index
// materialize_day_plans' vectors (kStaticDayPlan outside [0, days)).
void apply_materialized_timeline(engine::SampledFleet& fleet,
                                 const engine::Timeline& tl,
                                 std::uint64_t seed, int days) {
  if (tl.empty()) {
    for (auto& cfg : fleet.configs) cfg.day_plan_fn = nullptr;
    return;
  }
  auto plans = materialize_day_plans(fleet, tl, seed, days);
  for (size_t i = 0; i < plans.size(); ++i) {
    fleet.configs[i].day_plan_fn = [p = std::move(plans[i])](int day) {
      return day >= 0 && static_cast<size_t>(day) < p.size()
                 ? p[static_cast<size_t>(day)]
                 : traffic::kStaticDayPlan;
    };
  }
}

// The fuzzer's shard-reuse twin: `cfg` with the last timeline event
// dropped, or one whole-horizon cpe_fix added when there is none. It
// samples the same population, so on a shared cache it leaves behind the
// shards of every home the perturbation does not re-plan.
engine::FleetConfig timeline_twin(const engine::FleetConfig& cfg) {
  engine::FleetConfig twin = cfg;
  auto& events = twin.timeline->events;
  if (!events.empty()) {
    events.pop_back();
  } else {
    engine::TimelineEvent fix;
    fix.kind = engine::TimelineEventKind::cpe_fix;
    fix.start_day = 0;
    fix.end_day = cfg.days - 1;
    fix.fraction = 0.5;
    events.push_back(fix);
  }
  return twin;
}

}  // namespace

std::string source_dir() { return NBV6_SOURCE_DIR; }

std::string scenarios_dir() { return source_dir() + "/examples/scenarios"; }

std::string golden_dir() { return source_dir() + "/tests/golden"; }

std::vector<std::string> scenario_files() {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(scenarios_dir(), ec)) {
    if (entry.path().extension() == ".cfg")
      out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string scenario_stem(const std::string& path) {
  return std::filesystem::path(path).stem().string();
}

int bound_resources(const engine::Pipeline& pipe) {
  int bound = 0;
  auto probe = [&](auto read) {
    try {
      read();
      ++bound;
    } catch (const std::logic_error&) {
    }
  };
  probe([&] { (void)pipe.output<engine::SampledFleet>("population"); });
  probe([&] { (void)pipe.output<engine::SampledFleet>("planned_fleet"); });
  probe([&] { (void)pipe.output<engine::FleetResult>("fleet_result"); });
  probe([&] { (void)pipe.output<core::FleetStatsReport>("stats_report"); });
  probe([&] { (void)pipe.output<core::GroupComparison>("window_panel"); });
  return bound;
}

ScenarioRun run_scenario(const engine::FleetConfig& cfg,
                         const traffic::ServiceCatalog& catalog, int lanes,
                         PlanSource plans, engine::PassCache* cache) {
  std::unique_ptr<engine::ThreadPool> pool;
  if (lanes > 1) pool = std::make_unique<engine::ThreadPool>(lanes - 1);
  ScenarioRun run;
  run.cfg = cfg;
  if (plans == PlanSource::lazy) {
    engine::Pipeline pipe = core::make_scenario_pipeline(cfg, catalog);
    pipe.run(cache, pool.get());
    run.result = pipe.output<engine::FleetResult>("fleet_result");
    run.report = pipe.output<core::FleetStatsReport>("stats_report");
    // Pre/post panel over the horizon's halves: with timeline events this
    // is the before/after comparison; without, a self-check near the null.
    run.window_panel = pipe.output<core::GroupComparison>("window_panel");
    return run;
  }

  // The reference: the chain's stage functions called here, with the
  // timeline's plans materialized up front.
  engine::SampledFleet planned = engine::sample_stage(cfg, catalog);
  apply_materialized_timeline(planned, cfg.timeline, cfg.seed, cfg.days);
  run.result = engine::simulate_fleet(catalog, planned, pool.get(), cache);
  run.report =
      core::fleet_stats_report(run.result, pool.get(), core::kScenarioAlpha);
  const core::PanelWindows w = core::panel_windows(cfg.days);
  run.window_panel = core::compare_windows(
      run.result, core::default_fleet_metrics(), w.pre, w.post,
      core::FleetGroup::all, pool.get(), core::kScenarioAlpha);
  return run;
}

engine::FleetResult simulate_scenario(const engine::FleetConfig& cfg,
                                      const traffic::ServiceCatalog& catalog,
                                      engine::ThreadPool* pool) {
  engine::SampledFleet fleet = engine::sample_stage(cfg, catalog);
  engine::apply_timeline(fleet, cfg.timeline, cfg.seed, cfg.days);
  return engine::simulate_fleet(catalog, fleet, pool);
}

std::vector<std::vector<traffic::DayPlan>> materialize_day_plans(
    const engine::SampledFleet& fleet, const engine::Timeline& tl,
    std::uint64_t seed, int days) {
  std::vector<std::vector<traffic::DayPlan>> plans(fleet.configs.size());
  for (size_t i = 0; i < plans.size(); ++i)
    for (int d = 0; d < days; ++d)
      plans[i].push_back(engine::timeline_day_plan(
          tl, seed, static_cast<int>(i), d, days, fleet.traits[i],
          fleet.configs[i]));
  return plans;
}

std::optional<std::string> check_plan_parity(
    const engine::FleetConfig& cfg, const traffic::ServiceCatalog& catalog) {
  engine::SampledFleet fleet = engine::sample_stage(cfg, catalog);
  engine::apply_timeline(fleet, cfg.timeline, cfg.seed, cfg.days);
  const auto want = materialize_day_plans(fleet, cfg.timeline, cfg.seed,
                                          cfg.days);

  auto cell = [](size_t i, int d) {
    return "residence " + std::to_string(i) + " day " + std::to_string(d);
  };
  for (size_t i = 0; i < fleet.configs.size(); ++i) {
    const traffic::DayPlanFn& lazy = fleet.configs[i].day_plan_fn;
    if (cfg.timeline->empty()) {
      if (lazy)
        return "empty timeline left a provider on residence " +
               std::to_string(i);
      continue;
    }
    if (!lazy) return "no provider on residence " + std::to_string(i);
    for (int d = 0; d < cfg.days; ++d) {
      const traffic::DayPlan a = lazy(d);
      if (!(a == want[i][static_cast<size_t>(d)]))
        return "lazy/materialized plan mismatch at " + cell(i, d);
      // The plan must also be a pure function of the day: a second
      // evaluation through the lazy closure has no state to vary on.
      if (!(lazy(d) == a)) return "lazy plan not pure at " + cell(i, d);
    }
    if (!(lazy(cfg.days) == traffic::kStaticDayPlan) ||
        !(lazy(-1) == traffic::kStaticDayPlan))
      return "lazy plan out-of-horizon fallback broken on residence " +
             std::to_string(i);
  }
  return std::nullopt;
}

std::string canonical_serialize(const ScenarioRun& run) {
  using flowmon::Scope;
  std::string out;
  out.reserve(1 << 16);

  const auto& cfg = run.cfg;
  append(out, "scenario residences=%d days=%d seed=%" PRIu64 " events=%zu",
         cfg.residences.get(), cfg.days.get(), cfg.seed.get(),
         cfg.timeline->events.size());
  // Open-loop runs name their arrival process in the header; batch runs
  // keep the original line so every pre-existing golden stays byte-exact.
  if (cfg.arrival->mode != traffic::ArrivalMode::batch) {
    append(out, " arrival=%s ticks_per_hour=%d",
           traffic::to_string(cfg.arrival->mode), cfg.arrival->ticks_per_hour);
  }
  out += '\n';

  const auto& totals = run.result.totals;
  append(out,
         "totals sessions=%" PRIu64 " flows=%" PRIu64 " invisible=%" PRIu64
         " he_failures=%" PRIu64 " outage_suppressed=%" PRIu64
         " service_outage=%" PRIu64 " cgn_failures=%" PRIu64 "\n",
         totals.sessions, totals.flows, totals.skipped_invisible,
         totals.he_failures, totals.outage_suppressed,
         totals.service_outage_failed, totals.cgn_failures);

  // ---- day-resolved session stats -----------------------------------
  // Fleet-level per-day rows in full (small: one per simulated day), the
  // per-residence series folded to an FNV checksum like the other
  // high-volume aggregates.
  for (size_t d = 0; d < totals.daily.size(); ++d) {
    const auto& ds = totals.daily[d];
    append(out,
           "day_stats day=%zu sessions=%" PRIu64 " he_failures=%" PRIu64
           " outage_suppressed=%" PRIu64 " service_outage=%" PRIu64
           " cgn_failures=%" PRIu64 "\n",
           d, ds.sessions, ds.he_failures, ds.outage_suppressed,
           ds.service_outage_failed, ds.cgn_failures);
  }
  {
    Fnv fnv;
    size_t entries = 0;
    for (const auto& r : run.result.residences) {
      for (size_t d = 0; d < r.stats.daily.size(); ++d) {
        const auto& ds = r.stats.daily[d];
        fnv.add(static_cast<std::uint64_t>(d));
        fnv.add(ds.sessions);
        fnv.add(ds.he_failures);
        fnv.add(ds.outage_suppressed);
        fnv.add(ds.service_outage_failed);
        fnv.add(ds.cgn_failures);
        ++entries;
      }
    }
    append(out, "residence_day_stats entries=%zu fnv=%016" PRIx64 "\n",
           entries, fnv.h);
  }

  // ---- fleet-level monitor state ------------------------------------
  const auto& fleet = run.result.fleet;
  append_split(out, "fleet external", fleet.totals(Scope::external));
  append_split(out, "fleet internal", fleet.totals(Scope::internal));
  // Dense series: a cell with no flows is a day or hour without traffic,
  // and is skipped, so only days and hours that saw traffic are printed.
  for (Scope s : {Scope::external, Scope::internal}) {
    const auto& daily = fleet.daily(s);
    for (size_t day = 0; day < daily.size(); ++day) {
      const auto& split = daily[day];
      if (split.total_flows() == 0) continue;
      append(out,
             "daily %s day=%d v4_bytes=%" PRIu64 " v6_bytes=%" PRIu64
             " v4_flows=%" PRIu64 " v6_flows=%" PRIu64 "\n",
             s == Scope::external ? "external" : "internal",
             static_cast<int>(day),
             split.v4.bytes, split.v6.bytes, split.v4.flows, split.v6.flows);
    }
  }
  {
    Fnv fnv;
    size_t hours = 0;
    const auto& hourly = fleet.hourly_external();
    for (size_t hour = 0; hour < hourly.size(); ++hour) {
      const auto& split = hourly[hour];
      if (split.total_flows() == 0) continue;
      fnv.add(static_cast<std::uint64_t>(hour));
      fnv.add(split.v4.bytes);
      fnv.add(split.v6.bytes);
      fnv.add(split.v4.flows);
      fnv.add(split.v6.flows);
      ++hours;
    }
    append(out, "hourly_external count=%zu fnv=%016" PRIx64 "\n", hours,
           fnv.h);
  }
  {
    Fnv fnv;
    // Sorted by address at readout, so the order is deterministic.
    auto dests = fleet.destination_tallies();
    for (const auto& d : dests) {
      if (d.addr.is_v4()) {
        fnv.add(d.addr.v4().value());
      } else {
        fnv.add(d.addr.v6().high64());
        fnv.add(d.addr.v6().low64());
      }
      fnv.add(d.tally.bytes);
      fnv.add(d.tally.flows);
    }
    append(out, "destinations count=%zu fnv=%016" PRIx64 "\n", dests.size(),
           fnv.h);
  }

  // ---- per-residence shards -----------------------------------------
  for (size_t i = 0; i < run.result.residences.size(); ++i) {
    const auto& r = run.result.residences[i];
    const auto& ext = r.monitor.totals(Scope::external);
    const auto& internal = r.monitor.totals(Scope::internal);
    const auto& t = run.result.traits[i];
    append(out,
           "residence %zu name=%s sessions=%" PRIu64 " flows=%" PRIu64
           " he=%" PRIu64 " outage=%" PRIu64 " svc_outage=%" PRIu64
           " cgn=%" PRIu64 " ext_v4b=%" PRIu64
           " ext_v6b=%" PRIu64 " ext_v4f=%" PRIu64 " ext_v6f=%" PRIu64
           " int_b=%" PRIu64
           " traits=ds:%d,broken:%d,streamer:%d,vacant:%d,opt:%d,abs:%d\n",
           i, r.config.name.c_str(), r.stats.sessions, r.stats.flows,
           r.stats.he_failures, r.stats.outage_suppressed,
           r.stats.service_outage_failed, r.stats.cgn_failures, ext.v4.bytes,
           ext.v6.bytes, ext.v4.flows, ext.v6.flows, internal.total_bytes(),
           t.dual_stack_isp ? 1 : 0, t.broken_v6 ? 1 : 0,
           t.heavy_streamer ? 1 : 0, t.vacant ? 1 : 0, t.opt_out ? 1 : 0,
           t.scripted_absence ? 1 : 0);
  }

  // ---- metric matrix -------------------------------------------------
  for (size_t m = 0; m < run.report.matrix.metrics.size(); ++m) {
    append(out, "matrix %s", core::to_string(run.report.matrix.metrics[m]));
    for (double v : run.report.matrix.values[m]) {
      out += ' ';
      append_d(out, v);
    }
    out += '\n';
  }

  // ---- panels --------------------------------------------------------
  for (const auto& cmp : run.report.comparisons)
    append_panel(out, "unpaired", cmp);
  append_panel(out, "paired", run.report.paired);
  append_panel(out, "window_pre_post", run.window_panel);

  // ---- population distributions -------------------------------------
  for (const auto& d : run.report.distributions) {
    append(out, "distribution %s defined=%zu count=%" PRIu64,
           core::to_string(d.metric), d.defined, d.cdf.count());
    const auto& s = d.summary;
    const double vals[] = {s.mean,          s.stddev,        s.min,
                           s.p25,           s.median,        s.p75,
                           s.max,           d.cdf.quantile(0.25),
                           d.cdf.quantile(0.5), d.cdf.quantile(0.75)};
    const char* names[] = {"mean", "sd",  "min",  "p25",  "median",
                           "p75",  "max", "cq25", "cq50", "cq75"};
    for (size_t k = 0; k < std::size(vals); ++k) {
      append(out, " %s=", names[k]);
      append_d(out, vals[k]);
    }
    out += '\n';
  }
  return out;
}

std::optional<std::string> fuzz_check_scenario(
    const std::string& text, const traffic::ServiceCatalog& catalog) {
  if (auto err = engine::check_parse_round_trip(text))
    return "round-trip: " + *err;

  std::string parse_error;
  auto cfg = engine::FleetConfig::parse(text, &parse_error);
  if (!cfg) return "parse: " + parse_error;  // unreachable after round-trip

  if (auto err = check_plan_parity(*cfg, catalog))
    return "plan-parity: " + *err;

  // Lane-count invariance and lazy/materialized simulation parity, both
  // stated as byte equality of the canonical serialization.
  const ScenarioRun base = run_scenario(*cfg, catalog, 1);
  const std::string base_text = canonical_serialize(base);
  for (int lanes : {4, 8}) {
    const std::string other =
        canonical_serialize(run_scenario(*cfg, catalog, lanes));
    if (other != base_text)
      return "lane-parity: 1-lane vs " + std::to_string(lanes) +
             "-lane serializations differ\n" + first_diff(base_text, other);
  }
  {
    const std::string mat = canonical_serialize(
        run_scenario(*cfg, catalog, 1, PlanSource::materialized));
    if (mat != base_text)
      return "mode-parity: lazy vs materialized serializations differ\n" +
             first_diff(base_text, mat);
  }

  // Shard-level reuse: the twin leaves its sample and the shards of every
  // home it plans alike in the cache; the config must bind those and still
  // serialize exactly as the uncached run.
  {
    engine::PassCache cache;
    run_scenario(timeline_twin(*cfg), catalog, 4, PlanSource::lazy, &cache);
    const std::string shared = canonical_serialize(
        run_scenario(*cfg, catalog, 4, PlanSource::lazy, &cache));
    if (shared != base_text)
      return "shard-reuse: run on the twin's cache vs uncached serializations "
             "differ\n" +
             first_diff(base_text, shared);
  }

  // Windowed metric finiteness. Count/sum metrics must be real numbers on
  // any window that intersects the horizon; rate/fraction metrics may be
  // NaN (undefined: nothing happened) but never infinite.
  const core::FleetMetric kAllMetrics[] = {
      core::FleetMetric::v6_byte_fraction,
      core::FleetMetric::v6_flow_fraction,
      core::FleetMetric::daily_v6_byte_fraction,
      core::FleetMetric::external_gb,
      core::FleetMetric::external_flows_k,
      core::FleetMetric::internal_gb,
      core::FleetMetric::he_failure_rate,
      core::FleetMetric::sessions_k,
      core::FleetMetric::outage_suppressed_k,
      core::FleetMetric::service_outage_k,
      core::FleetMetric::cgn_failure_rate,
  };
  auto is_sum_metric = [](core::FleetMetric m) {
    switch (m) {
      case core::FleetMetric::external_gb:
      case core::FleetMetric::external_flows_k:
      case core::FleetMetric::internal_gb:
      case core::FleetMetric::sessions_k:
      case core::FleetMetric::outage_suppressed_k:
      case core::FleetMetric::service_outage_k:
        return true;
      default:
        return false;
    }
  };

  const int days = cfg->days;
  std::vector<core::DayWindow> windows;
  windows.push_back({0, days - 1});
  if (days >= 2) {
    windows.push_back({0, days / 2 - 1});
    windows.push_back({days / 2, days - 1});
  }
  for (int d : {0, days / 2, days - 1}) windows.push_back({d, d});
  for (const auto& ev : cfg->timeline->events) {
    const int first = std::clamp(ev.start_day, 0, days - 1);
    const int last = std::clamp(ev.end_day, first, days - 1);
    windows.push_back({first, last});
  }

  for (const auto& w : windows) {
    const auto matrix =
        core::extract_metrics(base.result, kAllMetrics, w, nullptr);
    for (size_t m = 0; m < matrix.metrics.size(); ++m) {
      for (size_t i = 0; i < matrix.values[m].size(); ++i) {
        const double v = matrix.values[m][i];
        if (std::isinf(v) ||
            (std::isnan(v) && is_sum_metric(matrix.metrics[m])))
          return std::string("window-finiteness: metric ") +
                 core::to_string(matrix.metrics[m]) + " residence " +
                 std::to_string(i) + " window [" + std::to_string(w.first) +
                 ", " + std::to_string(w.last) + "] = " + std::to_string(v);
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool write_file(const std::string& path, std::string_view content) {
  std::ofstream outf(path, std::ios::binary | std::ios::trunc);
  if (!outf) return false;
  outf.write(content.data(), static_cast<std::streamsize>(content.size()));
  return static_cast<bool>(outf);
}

std::string first_diff(std::string_view a, std::string_view b) {
  if (a == b) return {};
  size_t line = 1;
  size_t pa = 0, pb = 0;
  while (pa < a.size() && pb < b.size()) {
    size_t ea = a.find('\n', pa);
    size_t eb = b.find('\n', pb);
    std::string_view la = a.substr(pa, ea == std::string_view::npos
                                           ? std::string_view::npos
                                           : ea - pa);
    std::string_view lb = b.substr(pb, eb == std::string_view::npos
                                           ? std::string_view::npos
                                           : eb - pb);
    if (la != lb) {
      std::string out = "line " + std::to_string(line) + ":\n  a: ";
      out.append(la.substr(0, 200));
      out += "\n  b: ";
      out.append(lb.substr(0, 200));
      return out;
    }
    if (ea == std::string_view::npos || eb == std::string_view::npos) break;
    pa = ea + 1;
    pb = eb + 1;
    ++line;
  }
  return "line " + std::to_string(line) +
         ": one side ends early (sizes " + std::to_string(a.size()) + " vs " +
         std::to_string(b.size()) + ")";
}

}  // namespace nbv6::testutil
