// Fleet-scale statistical reporting: from per-residence shards to the
// paper's population-level comparisons.
//
// The fleet engine leaves every residence's monitor intact next to the
// merged fleet view; this layer extracts per-residence scalar metrics from
// those shards (fanned out over the engine's ThreadPool, index-addressed so
// any lane count is bit-identical), groups residences by the strata the
// scenario sampler recorded (dual-stack vs broken-CPE, streamer vs
// baseline, ...), and renders
//   - unpaired Wilcoxon rank-sum panels between group pairs, Holm-corrected
//     across metrics (Fig. 12's family-wise control applied fleet-wide),
//   - paired signed-rank panels between metric pairs over one group, and
//   - population CDFs and box-plot summaries per metric (Figs. 1/3/4 scaled
//     from five homes to the population).
#pragma once

#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "engine/fleet.h"
#include "engine/thread_pool.h"
#include "stats/descriptive.h"
#include "stats/fleet_stats.h"

namespace nbv6::core {

// ------------------------------------------------------ metric extraction

/// Per-residence scalar metrics, each a pure function of one shard.
enum class FleetMetric {
  v6_byte_fraction,        ///< overall external IPv6 byte fraction
  v6_flow_fraction,        ///< overall external IPv6 flow fraction
  daily_v6_byte_fraction,  ///< mean of the daily external byte-fraction series
  external_gb,             ///< external bytes, GB
  external_flows_k,        ///< external flows, thousands
  internal_gb,             ///< internal (LAN) bytes, GB
  he_failure_rate,         ///< Happy Eyeballs failures per session
  sessions_k,              ///< sessions attempted, thousands
  outage_suppressed_k,     ///< sessions lost to outage days, thousands
  service_outage_k,        ///< sessions lost to per-service outages, thousands
  cgn_failure_rate,        ///< CGN port-budget failures per session
};

const char* to_string(FleetMetric m);

/// The panel every report defaults to.
std::vector<FleetMetric> default_fleet_metrics();

/// values[m][i] = metric m at residence i; NaN when undefined there (no
/// traffic in the relevant scope). Row-aligned with `metrics`.
struct FleetMetricMatrix {
  std::vector<FleetMetric> metrics;
  std::vector<std::vector<double>> values;

  [[nodiscard]] std::span<const double> row(FleetMetric m) const;
};

/// Extract every requested metric from every shard over the whole horizon:
/// the windowed overload below with DayWindow{}. `pool` fans residences
/// out (nullptr runs sequentially); each shard's metrics land in its own
/// index-addressed slot, so results are bit-identical for any lane count.
FleetMetricMatrix extract_metrics(const engine::FleetResult& result,
                                  std::span<const FleetMetric> metrics,
                                  engine::ThreadPool* pool = nullptr);

// ------------------------------------------------------------ day windows

/// Inclusive simulated-day range. The scenario timeline changes conditions
/// mid-observation; windows let every analysis compare the days before an
/// event against the days after it. Defaults cover the whole horizon.
struct DayWindow {
  int first = 0;
  int last = std::numeric_limits<int>::max();

  [[nodiscard]] bool contains(int day) const {
    return day >= first && day <= last;
  }
  /// An inverted window (last < first) contains no day and is treated as
  /// degenerate input everywhere: windowed extract_metrics returns all-NaN
  /// and compare_windows a defined empty panel.
  [[nodiscard]] bool valid() const { return first <= last; }
  friend bool operator==(const DayWindow&, const DayWindow&) = default;
};

/// extract_metrics() restricted to the sessions and flows of the days
/// inside `window`, computed from each shard monitor's per-day aggregates
/// and the simulator's per-day session stats (so he_failure_rate,
/// sessions_k, and outage_suppressed_k are real numbers in any window that
/// intersects the horizon). A residence whose simulated horizon does not
/// intersect `window` — including every residence when the window is
/// inverted — extracts as NaN for every metric: no simulated day, no value.
FleetMetricMatrix extract_metrics(const engine::FleetResult& result,
                                  std::span<const FleetMetric> metrics,
                                  DayWindow window,
                                  engine::ThreadPool* pool = nullptr);

// ----------------------------------------------------------- group specs

/// Residence groups definable from sampled stratum labels.
enum class FleetGroup {
  all,
  active,          ///< not vacant
  dual_stack,      ///< ISP delegates IPv6
  v4_only,         ///< ISP does not
  healthy_v6,      ///< dual-stack, CPE/device IPv6 intact
  broken_cpe,      ///< dual-stack but flaky device IPv6
  heavy_streamer,
  baseline,        ///< neither heavy streamer nor vacant
  opt_out,         ///< partial router visibility
  fully_visible,
};

const char* to_string(FleetGroup g);

/// Residence indices belonging to `g`, in index order.
std::vector<size_t> group_members(
    std::span<const engine::ResidenceTraits> traits, FleetGroup g);

// ------------------------------------------------------------- reporting

/// One group pair's panel: every metric tested A vs B with the unpaired
/// rank-sum test, Holm-corrected across the panel's metrics.
struct GroupComparison {
  FleetGroup group_a;
  FleetGroup group_b;
  std::vector<stats::PanelRow> rows;
};

GroupComparison compare_groups(const FleetMetricMatrix& matrix,
                               std::span<const engine::ResidenceTraits> traits,
                               FleetGroup a, FleetGroup b,
                               double alpha = 0.05);

/// Pre/post-event panel: every metric tested `pre` vs `post` with the
/// paired signed-rank test across the residences of `group` where the
/// metric is defined in both windows, Holm-corrected across metrics.
/// group_a == group_b == `group` in the result; rows keep the plain metric
/// name (the window pair is the caller's context). Requires index-aligned
/// traits on the result (throws std::invalid_argument otherwise) and is
/// deterministic for any `pool` lane count. Degenerate windows — inverted,
/// or entirely outside the simulated horizon — yield a defined empty panel
/// (no rows), mirroring the Wilcoxon layer's NaN hardening.
GroupComparison compare_windows(const engine::FleetResult& result,
                                std::span<const FleetMetric> metrics,
                                DayWindow pre, DayWindow post,
                                FleetGroup group = FleetGroup::all,
                                engine::ThreadPool* pool = nullptr,
                                double alpha = 0.05);

/// One metric's population distribution: streaming CDF (bin-resolution
/// quantiles, mergeable) next to the exact box plot and summary.
struct PopulationDistribution {
  FleetMetric metric;
  size_t defined = 0;  ///< residences where the metric is defined
  stats::StreamingCdf cdf;
  stats::BoxPlot box;
  stats::Summary summary;
};

/// The full fleet-statistics report: the fleet layer's one aggregate
/// product.
struct FleetStatsReport {
  /// Whole-horizon matrix over default_fleet_metrics(), bit for bit
  /// extract_metrics(result, default_fleet_metrics()). The scenario chain
  /// exposes it only here, in its "stats_report" resource.
  FleetMetricMatrix matrix;
  std::vector<GroupComparison> comparisons;  ///< unpaired, default pairs
  GroupComparison paired;                    ///< flow- vs byte-fraction etc.
  std::vector<PopulationDistribution> distributions;
};

/// Build the whole report from a fleet run that carried traits
/// (simulate_fleet of a SampledFleet); throws std::invalid_argument
/// when the result has no index-aligned traits. Deterministic per
/// (result, alpha) for any `pool` lane count.
FleetStatsReport fleet_stats_report(const engine::FleetResult& result,
                                    engine::ThreadPool* pool = nullptr,
                                    double alpha = 0.05);

// ------------------------------------------------------------- rendering

/// Panel as TSV: one row per metric, preceded by the column header when
/// `header` (pass false to append panels into one file).
void write_panel_tsv(std::FILE* out, const GroupComparison& cmp,
                     bool header = true);

/// CDF curves as CSV rows "metric,q,value", 101 rows per metric (q = 0,
/// 0.01, ..., 1).
void write_cdf_csv(std::FILE* out,
                   std::span<const PopulationDistribution> dists);

/// Box/summary rows as CSV "metric,count,mean,sd,min,p25,median,p75,max".
void write_summary_csv(std::FILE* out,
                       std::span<const PopulationDistribution> dists);

}  // namespace nbv6::core
