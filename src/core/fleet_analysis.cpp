#include "core/fleet_analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "stats/wilcoxon.h"

namespace nbv6::core {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr int kCdfBins = 128;   ///< population CDF resolution
constexpr int kCdfPoints = 100; ///< quantile steps per written CDF curve

/// One shard's aggregates over the days inside a window: everything a
/// metric reads, summed once per shard.
struct WindowSums {
  flowmon::FamilySplit external;
  flowmon::FamilySplit internal;
  traffic::DaySessionStats sessions;
  double day_fraction_sum = 0;  ///< v6 byte fractions of non-empty days
  size_t day_fraction_days = 0;
};

WindowSums window_sums(const engine::ResidenceRun& run,
                       const DayWindow& window) {
  WindowSums s;
  const auto& external = run.monitor.daily(flowmon::Scope::external);
  for (size_t d = 0; d < external.size(); ++d) {
    if (!window.contains(static_cast<int>(d))) continue;
    s.external += external[d];
    const double f = external[d].v6_byte_fraction();
    if (f < 0) continue;  // empty day
    s.day_fraction_sum += f;
    ++s.day_fraction_days;
  }
  const auto& internal = run.monitor.daily(flowmon::Scope::internal);
  for (size_t d = 0; d < internal.size(); ++d)
    if (window.contains(static_cast<int>(d))) s.internal += internal[d];
  // The simulator sizes `daily` to the horizon, so the clamp is belt and
  // braces for hand-built results.
  const auto& daily = run.stats.daily;
  for (size_t d = 0; d < daily.size(); ++d)
    if (window.contains(static_cast<int>(d))) s.sessions += daily[d];
  return s;
}

/// One metric from a shard's window sums; NaN when undefined there (no
/// traffic in the scope, or no session for a per-session rate).
double metric_of(const WindowSums& s, FleetMetric m) {
  auto fraction = [](double f) { return f < 0 ? kNan : f; };
  auto per_session = [&s](std::uint64_t n) {
    return s.sessions.sessions == 0
               ? kNan
               : static_cast<double>(n) /
                     static_cast<double>(s.sessions.sessions);
  };
  switch (m) {
    case FleetMetric::v6_byte_fraction:
      return fraction(s.external.v6_byte_fraction());
    case FleetMetric::v6_flow_fraction:
      return fraction(s.external.v6_flow_fraction());
    case FleetMetric::daily_v6_byte_fraction:
      return s.day_fraction_days == 0
                 ? kNan
                 : s.day_fraction_sum /
                       static_cast<double>(s.day_fraction_days);
    case FleetMetric::external_gb:
      return static_cast<double>(s.external.total_bytes()) / 1e9;
    case FleetMetric::external_flows_k:
      return static_cast<double>(s.external.total_flows()) / 1e3;
    case FleetMetric::internal_gb:
      return static_cast<double>(s.internal.total_bytes()) / 1e9;
    case FleetMetric::he_failure_rate:
      return per_session(s.sessions.he_failures);
    case FleetMetric::sessions_k:
      return static_cast<double>(s.sessions.sessions) / 1e3;
    case FleetMetric::outage_suppressed_k:
      return static_cast<double>(s.sessions.outage_suppressed) / 1e3;
    case FleetMetric::service_outage_k:
      return static_cast<double>(s.sessions.service_outage_failed) / 1e3;
    case FleetMetric::cgn_failure_rate:
      return per_session(s.sessions.cgn_failures);
  }
  return kNan;
}

/// The paired signed-rank row for `metric` between rows `a` and `b`, over
/// the residences in `members` where both are defined; nullopt when no
/// such residence is left to test.
std::optional<stats::PanelRow> paired_row(std::string metric,
                                          std::span<const double> a,
                                          std::span<const double> b,
                                          std::span<const size_t> members) {
  std::vector<double> xs, ys;
  for (size_t i : members) {
    if (std::isnan(a[i]) || std::isnan(b[i])) continue;
    xs.push_back(a[i]);
    ys.push_back(b[i]);
  }
  auto test = stats::wilcoxon_signed_rank(xs, ys);
  if (!test) return std::nullopt;
  stats::PanelRow row;
  row.metric = std::move(metric);
  row.paired = true;
  row.n_a = row.n_b = test->n;
  row.median_a = stats::median(xs);
  row.median_b = stats::median(ys);
  row.z = test->z;
  row.effect_r = test->effect_size_r;
  row.p_raw = test->p_value;
  return row;
}

/// Traits index into the metric rows: a hand-built result with mismatched
/// sizes must fail here rather than read out of bounds in a comparison.
void require_traits(const engine::FleetResult& result, const char* caller) {
  if (result.traits.size() != result.residences.size())
    throw std::invalid_argument(
        std::string(caller) +
        ": result carries no index-aligned traits (run the engine via a "
        "FleetConfig or SampledFleet)");
}

/// Defined (non-NaN) values of `row` at the given residence indices.
std::vector<double> defined_at(std::span<const double> row,
                               std::span<const size_t> indices) {
  std::vector<double> out;
  out.reserve(indices.size());
  for (size_t i : indices)
    if (!std::isnan(row[i])) out.push_back(row[i]);
  return out;
}

bool is_fraction_metric(FleetMetric m) {
  switch (m) {
    case FleetMetric::v6_byte_fraction:
    case FleetMetric::v6_flow_fraction:
    case FleetMetric::daily_v6_byte_fraction:
    case FleetMetric::he_failure_rate:
    case FleetMetric::cgn_failure_rate:
      return true;
    default:
      return false;
  }
}

bool in_group(const engine::ResidenceTraits& t, FleetGroup g) {
  switch (g) {
    case FleetGroup::all: return true;
    case FleetGroup::active: return !t.vacant;
    case FleetGroup::dual_stack: return t.dual_stack_isp;
    case FleetGroup::v4_only: return !t.dual_stack_isp;
    case FleetGroup::healthy_v6: return t.dual_stack_isp && !t.broken_v6;
    case FleetGroup::broken_cpe: return t.dual_stack_isp && t.broken_v6;
    // Streamer and baseline both exclude vacant homes so the default
    // streamer-vs-baseline panel compares like with like.
    case FleetGroup::heavy_streamer: return t.heavy_streamer && !t.vacant;
    case FleetGroup::baseline: return !t.heavy_streamer && !t.vacant;
    case FleetGroup::opt_out: return t.opt_out;
    case FleetGroup::fully_visible: return !t.opt_out;
  }
  return false;
}

/// The default comparison pairs: each isolates one causal factor the paper
/// identifies for cross-residence variation.
std::vector<std::pair<FleetGroup, FleetGroup>> default_group_pairs() {
  return {
      {FleetGroup::healthy_v6, FleetGroup::broken_cpe},
      {FleetGroup::dual_stack, FleetGroup::v4_only},
      {FleetGroup::heavy_streamer, FleetGroup::baseline},
      {FleetGroup::fully_visible, FleetGroup::opt_out},
  };
}

/// Paired signed-rank panel over one group: each (first, second) metric
/// pair tested across the residences where both are defined, Holm-corrected
/// across the pairs.
GroupComparison compare_metrics_paired(
    const FleetMetricMatrix& matrix,
    std::span<const engine::ResidenceTraits> traits, FleetGroup group,
    std::span<const std::pair<FleetMetric, FleetMetric>> metric_pairs,
    double alpha) {
  GroupComparison out{group, group, {}};
  auto members = group_members(traits, group);

  for (const auto& [ma, mb] : metric_pairs) {
    auto row_a = matrix.row(ma);
    auto row_b = matrix.row(mb);
    if (row_a.empty() || row_b.empty()) continue;
    if (auto row = paired_row(std::string(to_string(ma)) + " vs " +
                                  to_string(mb),
                              row_a, row_b, members))
      out.rows.push_back(std::move(*row));
  }
  stats::holm_adjust(out.rows, alpha);
  return out;
}

/// Distributions for every matrix row. Fraction metrics bin over [0, 1];
/// unbounded metrics over [0, observed max].
std::vector<PopulationDistribution> population_distributions(
    const FleetMetricMatrix& matrix) {
  std::vector<PopulationDistribution> out;
  out.reserve(matrix.metrics.size());
  for (size_t m = 0; m < matrix.metrics.size(); ++m) {
    std::vector<double> defined;
    defined.reserve(matrix.values[m].size());
    for (double v : matrix.values[m])
      if (!std::isnan(v)) defined.push_back(v);

    // Fractions live on [0, 1]; unbounded metrics bin over the observed
    // range (an upstream producer can instead stream into a pre-sized
    // StreamingCdf — the accumulator itself never needs the vector).
    double hi = 1.0;
    if (!is_fraction_metric(matrix.metrics[m])) {
      hi = defined.empty() ? 1.0 : *std::max_element(defined.begin(),
                                                     defined.end());
      if (hi <= 0.0) hi = 1.0;
    }
    PopulationDistribution d{matrix.metrics[m], defined.size(),
                             stats::StreamingCdf(0.0, hi, kCdfBins),
                             {}, {}};
    d.cdf.add(defined);
    d.box = stats::boxplot(defined);
    d.summary = stats::summarize(defined);
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace

const char* to_string(FleetMetric m) {
  switch (m) {
    case FleetMetric::v6_byte_fraction: return "v6_byte_fraction";
    case FleetMetric::v6_flow_fraction: return "v6_flow_fraction";
    case FleetMetric::daily_v6_byte_fraction: return "daily_v6_byte_fraction";
    case FleetMetric::external_gb: return "external_gb";
    case FleetMetric::external_flows_k: return "external_flows_k";
    case FleetMetric::internal_gb: return "internal_gb";
    case FleetMetric::he_failure_rate: return "he_failure_rate";
    case FleetMetric::sessions_k: return "sessions_k";
    case FleetMetric::outage_suppressed_k: return "outage_suppressed_k";
    case FleetMetric::service_outage_k: return "service_outage_k";
    case FleetMetric::cgn_failure_rate: return "cgn_failure_rate";
  }
  return "?";
}

std::vector<FleetMetric> default_fleet_metrics() {
  return {FleetMetric::v6_byte_fraction,
          FleetMetric::v6_flow_fraction,
          FleetMetric::daily_v6_byte_fraction,
          FleetMetric::external_gb,
          FleetMetric::external_flows_k,
          FleetMetric::internal_gb,
          FleetMetric::he_failure_rate};
}

std::span<const double> FleetMetricMatrix::row(FleetMetric m) const {
  for (size_t i = 0; i < metrics.size(); ++i)
    if (metrics[i] == m) return values[i];
  return {};
}

FleetMetricMatrix extract_metrics(const engine::FleetResult& result,
                                  std::span<const FleetMetric> metrics,
                                  engine::ThreadPool* pool) {
  return extract_metrics(result, metrics, DayWindow{}, pool);
}

FleetMetricMatrix extract_metrics(const engine::FleetResult& result,
                                  std::span<const FleetMetric> metrics,
                                  DayWindow window,
                                  engine::ThreadPool* pool) {
  FleetMetricMatrix out;
  out.metrics.assign(metrics.begin(), metrics.end());
  out.values.assign(metrics.size(),
                    std::vector<double>(result.residences.size(), kNan));
  // One task per residence, writing that residence's column of every row:
  // pure per-shard work into preallocated slots, so the fan-out is
  // bit-identical for any lane count.
  auto extract_one = [&](std::size_t i) {
    const auto& run = result.residences[i];
    // A window that does not intersect the residence's simulated horizon
    // (inverted, or entirely outside it) leaves every metric NaN: there is
    // no day to count, so even the count metrics are undefined, not zero.
    if (!window.valid() || window.first >= run.config.days || window.last < 0)
      return;
    const WindowSums sums = window_sums(run, window);
    for (size_t m = 0; m < out.metrics.size(); ++m)
      out.values[m][i] = metric_of(sums, out.metrics[m]);
  };
  if (pool != nullptr) {
    pool->parallel_for(result.residences.size(), extract_one);
  } else {
    for (std::size_t i = 0; i < result.residences.size(); ++i) extract_one(i);
  }
  return out;
}

GroupComparison compare_windows(const engine::FleetResult& result,
                                std::span<const FleetMetric> metrics,
                                DayWindow pre, DayWindow post,
                                FleetGroup group, engine::ThreadPool* pool,
                                double alpha) {
  require_traits(result, "compare_windows");
  GroupComparison out{group, group, {}};
  // Degenerate windows are a defined no-result, not a silent wrong answer:
  // an inverted window contains no day, so there is nothing to test. (A
  // window past every residence's horizon falls out the same way — every
  // windowed metric extracts as NaN, leaving no testable pair.)
  if (!pre.valid() || !post.valid()) return out;
  auto members = group_members(result.traits, group);
  auto m_pre = extract_metrics(result, metrics, pre, pool);
  auto m_post = extract_metrics(result, metrics, post, pool);

  for (size_t m = 0; m < metrics.size(); ++m) {
    if (auto row = paired_row(to_string(metrics[m]), m_pre.values[m],
                              m_post.values[m], members))
      out.rows.push_back(std::move(*row));
  }
  stats::holm_adjust(out.rows, alpha);
  return out;
}

const char* to_string(FleetGroup g) {
  switch (g) {
    case FleetGroup::all: return "all";
    case FleetGroup::active: return "active";
    case FleetGroup::dual_stack: return "dual_stack";
    case FleetGroup::v4_only: return "v4_only";
    case FleetGroup::healthy_v6: return "healthy_v6";
    case FleetGroup::broken_cpe: return "broken_cpe";
    case FleetGroup::heavy_streamer: return "heavy_streamer";
    case FleetGroup::baseline: return "baseline";
    case FleetGroup::opt_out: return "opt_out";
    case FleetGroup::fully_visible: return "fully_visible";
  }
  return "?";
}

std::vector<size_t> group_members(
    std::span<const engine::ResidenceTraits> traits, FleetGroup g) {
  std::vector<size_t> out;
  for (size_t i = 0; i < traits.size(); ++i)
    if (in_group(traits[i], g)) out.push_back(i);
  return out;
}

GroupComparison compare_groups(const FleetMetricMatrix& matrix,
                               std::span<const engine::ResidenceTraits> traits,
                               FleetGroup a, FleetGroup b, double alpha) {
  GroupComparison out{a, b, {}};
  auto idx_a = group_members(traits, a);
  auto idx_b = group_members(traits, b);

  for (size_t m = 0; m < matrix.metrics.size(); ++m) {
    auto xs = defined_at(matrix.values[m], idx_a);
    auto ys = defined_at(matrix.values[m], idx_b);
    auto test = stats::wilcoxon_rank_sum(xs, ys);
    if (!test) continue;  // a group has no defined values for this metric
    stats::PanelRow row;
    row.metric = to_string(matrix.metrics[m]);
    row.n_a = test->n1;
    row.n_b = test->n2;
    row.median_a = stats::median(xs);
    row.median_b = stats::median(ys);
    row.z = test->z;
    row.effect_r = test->effect_size_r;
    row.p_raw = test->p_value;
    out.rows.push_back(std::move(row));
  }
  stats::holm_adjust(out.rows, alpha);
  return out;
}

FleetStatsReport fleet_stats_report(const engine::FleetResult& result,
                                    engine::ThreadPool* pool, double alpha) {
  require_traits(result, "fleet_stats_report");
  FleetStatsReport report;
  auto metrics = default_fleet_metrics();
  report.matrix = extract_metrics(result, metrics, pool);
  for (auto [a, b] : default_group_pairs())
    report.comparisons.push_back(
        compare_groups(report.matrix, result.traits, a, b, alpha));
  const std::vector<std::pair<FleetMetric, FleetMetric>> paired_pairs = {
      {FleetMetric::v6_flow_fraction, FleetMetric::v6_byte_fraction},
      {FleetMetric::v6_byte_fraction, FleetMetric::daily_v6_byte_fraction},
  };
  report.paired = compare_metrics_paired(report.matrix, result.traits,
                                         FleetGroup::active, paired_pairs,
                                         alpha);
  report.distributions = population_distributions(report.matrix);
  return report;
}

void write_panel_tsv(std::FILE* out, const GroupComparison& cmp,
                     bool header) {
  if (header)
    std::fprintf(out,
                 "group_a\tgroup_b\tmetric\tpaired\tn_a\tn_b\tmedian_a\t"
                 "median_b\tz\teffect_r\tp_raw\tp_holm\tsignificant\n");
  for (const auto& r : cmp.rows) {
    std::fprintf(out,
                 "%s\t%s\t%s\t%d\t%zu\t%zu\t%.6g\t%.6g\t%.4f\t%.4f\t%.6g\t"
                 "%.6g\t%d\n",
                 to_string(cmp.group_a), to_string(cmp.group_b),
                 r.metric.c_str(), r.paired ? 1 : 0, r.n_a, r.n_b, r.median_a,
                 r.median_b, r.z, r.effect_r, r.p_raw, r.p_holm,
                 r.significant ? 1 : 0);
  }
}

void write_cdf_csv(std::FILE* out,
                   std::span<const PopulationDistribution> dists) {
  std::fprintf(out, "metric,q,value\n");
  for (const auto& d : dists) {
    for (int i = 0; i <= kCdfPoints; ++i) {
      double q = static_cast<double>(i) / kCdfPoints;
      std::fprintf(out, "%s,%.4f,%.6g\n", to_string(d.metric), q,
                   d.cdf.quantile(q));
    }
  }
}

void write_summary_csv(std::FILE* out,
                       std::span<const PopulationDistribution> dists) {
  std::fprintf(out, "metric,count,mean,sd,min,p25,median,p75,max\n");
  for (const auto& d : dists) {
    const auto& s = d.summary;
    std::fprintf(out, "%s,%zu,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g\n",
                 to_string(d.metric), s.count, s.mean, s.stddev, s.min, s.p25,
                 s.median, s.p75, s.max);
  }
}

}  // namespace nbv6::core
