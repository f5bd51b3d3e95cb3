// Wilcoxon rank tests and Holm-Bonferroni multiple-testing control.
//
// §5.2 of the paper compares IPv6 readiness of cloud-provider pairs over
// shared multi-cloud tenants with a two-sided Wilcoxon signed-rank test,
// reports the effect size r, and controls the family-wise error rate over
// all 67 comparable pairs with Holm-Bonferroni at α = 0.05. This module is
// that exact statistical machinery, plus the unpaired rank-sum (Mann-
// Whitney U) test the fleet layer runs between disjoint residence groups
// (dual-stack vs broken-CPE homes, heavy streamers vs baseline
// households). Both tests share one normal approximation.
#pragma once

#include <optional>
#include <span>
#include <vector>

namespace nbv6::stats {

struct WilcoxonResult {
  /// Number of non-zero paired differences actually tested.
  size_t n = 0;
  /// Sum of ranks of positive differences (the W+ statistic).
  double w_plus = 0;
  /// Two-sided p-value. Exact distribution when n <= 25 and there are no
  /// ties among |differences|; normal approximation (with tie and
  /// continuity corrections) otherwise.
  double p_value = 1.0;
  /// Signed standardized statistic; >0 means first sample tends larger.
  double z = 0;
  /// Effect size r = Z / sqrt(n), in [-1, 1]; the colour scale of Fig. 12.
  double effect_size_r = 0;
};

/// Paired two-sided test on xs vs ys. Zero differences are discarded
/// (Wilcoxon's original treatment, scipy zero_method="wilcox"), as are
/// non-finite ones (NaN undefined-metric sentinels have no rank). Returns
/// nullopt — a defined no-result, never NaN statistics or UB — when the
/// lengths differ or no testable difference remains.
std::optional<WilcoxonResult> wilcoxon_signed_rank(std::span<const double> xs,
                                                   std::span<const double> ys);

/// Test directly on precomputed differences.
std::optional<WilcoxonResult> wilcoxon_signed_rank(
    std::span<const double> diffs);

struct RankSumResult {
  /// Sample sizes actually tested.
  size_t n1 = 0;
  size_t n2 = 0;
  /// Mann-Whitney U statistic of the first sample (number of (x, y) pairs
  /// with x > y, ties counted half).
  double u1 = 0;
  /// Two-sided p-value. Exact distribution when both samples are small
  /// (n1, n2 <= 12) and the pooled sample has no tied values at all (ties
  /// within one sample also disqualify); normal approximation (with tie
  /// and continuity corrections) otherwise.
  double p_value = 1.0;
  /// Signed standardized statistic; >0 means the first sample tends larger.
  double z = 0;
  /// Effect size r = Z / sqrt(n1 + n2), in [-1, 1].
  double effect_size_r = 0;
};

/// Unpaired two-sided Wilcoxon rank-sum (Mann-Whitney U) test of xs vs ys.
/// Non-finite observations (NaN undefined-metric sentinels, infs) are
/// dropped before ranking; returns nullopt — a defined no-result, never
/// NaN statistics — when either sample has no finite values left.
/// Degenerate but testable inputs stay defined too: single observations
/// take the exact path, and an all-tied pool reports p = 1, z = 0.
std::optional<RankSumResult> wilcoxon_rank_sum(std::span<const double> xs,
                                               std::span<const double> ys);

/// Midranks of |values|: ties share the average of the ranks they occupy.
std::vector<double> midranks(std::span<const double> values);

/// Holm-Bonferroni step-down procedure. Given raw p-values, returns for
/// each whether it is rejected at family-wise level `alpha`, plus the
/// adjusted p-values. NaN p-values are treated as 1.0 (no evidence): they
/// are never rejected and cannot scramble the step-down ordering.
struct HolmResult {
  std::vector<bool> reject;
  std::vector<double> adjusted_p;
};

HolmResult holm_bonferroni(std::span<const double> p_values,
                           double alpha = 0.05);

/// Standard normal CDF (used by the approximation and exposed for tests).
double normal_cdf(double z);

}  // namespace nbv6::stats
