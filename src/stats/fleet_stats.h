// Fleet-scale statistics: the population-level machinery behind the
// paper's cross-residence comparisons, generalized from five instrumented
// households to arbitrarily large simulated fleets.
//
// Two pieces live here, both pure statistics (no engine dependency):
//   - StreamingCdf, a mergeable fixed-bin CDF/quantile accumulator so
//     population distributions over millions of residences never need the
//     full sample materialized in one vector, and
//   - the group-comparison panel row plus Holm-Bonferroni adjustment
//     across a panel's metrics (the family-wise control of Fig. 12 applied
//     to fleet metric panels).
// The rank tests the panels run (signed-rank and rank-sum) live in
// wilcoxon.h.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stats/descriptive.h"

namespace nbv6::stats {

// ------------------------------------------------------- streaming CDF

/// Mergeable streaming CDF/quantile accumulator over a fixed value range.
///
/// Values are counted into `bins` uniform-width bins over [lo, hi] (values
/// outside clamp to the edge bins); exact count, min, max, and Welford
/// mean/variance ride along. Quantile and CDF queries interpolate linearly
/// within a bin, so their error is bounded by one bin width — tight enough
/// for population figures at 128+ bins, while two accumulators merge by
/// integer bin addition (exact, order-independent) plus Chan's parallel
/// moment combination. Memory is O(bins) regardless of sample count.
class StreamingCdf {
 public:
  /// Requires lo < hi (throws std::invalid_argument otherwise); bins < 1
  /// is clamped to 1.
  StreamingCdf(double lo, double hi, int bins = 128);

  /// Non-finite values (the fleet layer's NaN undefined-metric sentinel,
  /// and +-inf artifacts) are skipped, so raw metric columns can stream in
  /// unfiltered.
  void add(double x);
  void add(std::span<const double> xs);

  /// True when `other` shares this accumulator's exact bin layout
  /// (lo, hi, bins) — the precondition merge() enforces. Lets shard
  /// reducers validate before merging instead of catching.
  [[nodiscard]] bool compatible_with(const StreamingCdf& other) const;

  /// Fold another accumulator in. Both must share (lo, hi, bins); a
  /// mismatched layout throws std::invalid_argument and leaves this
  /// accumulator untouched (strong guarantee — no counts are corrupted).
  void merge(const StreamingCdf& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  /// Sample standard deviation (n-1 denominator); 0 below 2 points.
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// P(X <= x), linear within the containing bin. 0 when empty.
  [[nodiscard]] double cdf(double x) const;

  /// Smallest value v (up to bin resolution) with P(X <= v) >= q, for q in
  /// [0, 1]; q = 0 and q = 1 return the exact min/max.
  [[nodiscard]] double quantile(double q) const;

  /// Five-number + moment summary; quartiles at bin resolution, the rest
  /// exact.
  [[nodiscard]] Summary summary() const;

  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const {
    return lo_ + width_ * static_cast<double>(bins_.size());
  }
  [[nodiscard]] int bins() const { return static_cast<int>(bins_.size()); }
  [[nodiscard]] std::uint64_t bin_count(int b) const {
    return bins_[static_cast<size_t>(b)];
  }

 private:
  double lo_;
  double width_;  // per-bin
  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// ------------------------------------------------- group-comparison panel

/// One row of a group-comparison panel: one metric tested between two
/// residence groups (unpaired rank-sum) or two metrics over one group
/// (paired signed-rank).
struct PanelRow {
  std::string metric;
  bool paired = false;
  size_t n_a = 0;  ///< group-A sample size (pairs tested when paired)
  size_t n_b = 0;  ///< group-B sample size (== n_a when paired)
  double median_a = 0;
  double median_b = 0;
  double z = 0;
  double effect_r = 0;
  double p_raw = 1.0;
  double p_holm = 1.0;  ///< Holm-adjusted across the panel's rows
  bool significant = false;
};

/// Apply Holm-Bonferroni across the rows' raw p-values in place, filling
/// p_holm and significant at family-wise level `alpha`.
void holm_adjust(std::span<PanelRow> rows, double alpha = 0.05);

}  // namespace nbv6::stats
