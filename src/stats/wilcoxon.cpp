#include "stats/wilcoxon.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace nbv6::stats {

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

namespace {

// Shared midrank engine: rank by key(value), ties share the average of the
// ranks they occupy, and the pooled tie term sum(t^3 - t) accumulates into
// `tie_term` when requested.
template <typename Key>
std::vector<double> midranks_by(std::span<const double> values, Key key,
                                double* tie_term) {
  const size_t n = values.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return key(values[a]) < key(values[b]);
  });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && key(values[order[j + 1]]) == key(values[order[i]]))
      ++j;
    // Positions i..j (0-based) share the average rank of positions i+1..j+1.
    double avg = (static_cast<double>(i + 1) + static_cast<double>(j + 1)) / 2.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    if (tie_term != nullptr) {
      double t = static_cast<double>(j - i + 1);
      *tie_term += t * t * t - t;
    }
    i = j + 1;
  }
  return ranks;
}

constexpr auto abs_key = [](double v) { return std::abs(v); };

// Midranks of signed values plus the pooled tie term: the rank-sum test's
// ranking of the pooled sample.
std::vector<double> midranks_signed(std::span<const double> values,
                                    double& tie_term) {
  tie_term = 0.0;
  return midranks_by(values, [](double v) { return v; }, &tie_term);
}

struct NormalApprox {
  double z = 0.0;
  double p_value = 1.0;
};

// Normal approximation of a rank statistic: `deviation` is the statistic
// minus its null mean and `var` its tie-corrected null variance. The
// continuity correction pulls toward the mean. No variance (every value
// tied) means no evidence either way: z = 0, p = 1.
NormalApprox normal_approx(double deviation, double var) {
  if (var <= 0) return {};
  const double cc = deviation > 0 ? -0.5 : (deviation < 0 ? 0.5 : 0.0);
  const double z = (deviation + cc) / std::sqrt(var);
  return {z, std::min(1.0, 2.0 * (1.0 - normal_cdf(std::abs(z))))};
}

// Z beside an exact p-value, from the untied variance, so the effect size
// stays consistent with the approximation's.
double exact_z(double deviation, double var) {
  return var > 0 ? deviation / std::sqrt(var) : 0.0;
}

// Effect size r = Z / sqrt(n), clamped to [-1, 1].
double effect_size(double z, double n) {
  return std::clamp(z / std::sqrt(n), -1.0, 1.0);
}

// Exact null distribution of W+ for n untied ranks: counts of subsets of
// {1..n} summing to each value, via DP. Feasible well past n = 25.
double exact_two_sided_p(int n, double w_plus) {
  const int max_sum = n * (n + 1) / 2;
  std::vector<double> counts(static_cast<size_t>(max_sum) + 1, 0.0);
  counts[0] = 1.0;
  for (int r = 1; r <= n; ++r)
    for (int s = max_sum; s >= r; --s)
      counts[static_cast<size_t>(s)] += counts[static_cast<size_t>(s - r)];

  const double total = std::pow(2.0, n);
  // Two-sided: double the smaller tail, using the symmetry of the null
  // distribution around max_sum / 2.
  double w = w_plus;
  double mirrored = static_cast<double>(max_sum) - w;
  double lo_stat = std::min(w, mirrored);
  double tail = 0.0;
  for (int s = 0; s <= static_cast<int>(std::floor(lo_stat + 1e-9)); ++s)
    tail += counts[static_cast<size_t>(s)];
  double p = 2.0 * tail / total;
  return std::min(1.0, p);
}

// Exact null distribution of the rank sum R1 for n1 untied ranks drawn
// from {1..n}: counts[k][s] = number of k-subsets summing to s, via DP.
// Used when both samples are small and there are no ties.
double exact_rank_sum_two_sided_p(int n1, int n2, double u1) {
  const int n = n1 + n2;
  const int max_sum = n * (n + 1) / 2;
  // counts[k][s], rolled over k in decreasing order.
  std::vector<std::vector<double>> counts(
      static_cast<size_t>(n1) + 1,
      std::vector<double>(static_cast<size_t>(max_sum) + 1, 0.0));
  counts[0][0] = 1.0;
  for (int r = 1; r <= n; ++r)
    for (int k = std::min(n1, r); k >= 1; --k)
      for (int s = max_sum; s >= r; --s)
        counts[static_cast<size_t>(k)][static_cast<size_t>(s)] +=
            counts[static_cast<size_t>(k - 1)][static_cast<size_t>(s - r)];

  double total = 0.0;
  for (double c : counts[static_cast<size_t>(n1)]) total += c;

  // U1 = R1 - n1(n1+1)/2 ranges over [0, n1*n2], symmetric around its
  // midpoint under the null. Two-sided: double the smaller tail.
  const int offset = n1 * (n1 + 1) / 2;
  const double u_max = static_cast<double>(n1) * n2;
  double lo_stat = std::min(u1, u_max - u1);
  double tail = 0.0;
  for (int u = 0; u <= static_cast<int>(std::floor(lo_stat + 1e-9)); ++u)
    tail += counts[static_cast<size_t>(n1)][static_cast<size_t>(u + offset)];
  return std::min(1.0, 2.0 * tail / total);
}

}  // namespace

std::vector<double> midranks(std::span<const double> values) {
  return midranks_by(values, abs_key, nullptr);
}

std::optional<WilcoxonResult> wilcoxon_signed_rank(
    std::span<const double> diffs) {
  // Discard zeros (Wilcoxon's treatment) and non-finite differences: NaN
  // is the fleet layer's undefined-metric sentinel and would otherwise
  // poison every midrank comparison, and an infinite difference has no
  // defined rank either. Dropping them keeps degenerate inputs at a
  // defined no-result (nullopt when nothing testable remains).
  std::vector<double> d;
  d.reserve(diffs.size());
  for (double x : diffs)
    if (x != 0.0 && std::isfinite(x)) d.push_back(x);
  if (d.empty()) return std::nullopt;

  // Midranks of |d|, with the tie structure of |d| collected in the same
  // pass. tie_term > 0 iff any tie group exists.
  double tie_term = 0.0;
  auto ranks = midranks_by(d, abs_key, &tie_term);
  const bool has_ties = tie_term > 0.0;
  const size_t n = d.size();

  WilcoxonResult r;
  r.n = n;
  double w_plus = 0.0;
  for (size_t i = 0; i < n; ++i)
    if (d[i] > 0) w_plus += ranks[i];
  r.w_plus = w_plus;

  const double nn = static_cast<double>(n);
  const double mean_w = nn * (nn + 1.0) / 4.0;
  const double var_untied = nn * (nn + 1.0) * (2.0 * nn + 1.0) / 24.0;

  if (!has_ties && n <= 25) {
    r.p_value = exact_two_sided_p(static_cast<int>(n), w_plus);
    r.z = exact_z(w_plus - mean_w, var_untied);
  } else {
    // Ties shrink the variance by sum(t^3 - t) / 48 per tie group of size t.
    const auto approx = normal_approx(w_plus - mean_w,
                                      var_untied - tie_term / 48.0);
    r.z = approx.z;
    r.p_value = approx.p_value;
  }
  r.effect_size_r = effect_size(r.z, nn);
  return r;
}

std::optional<WilcoxonResult> wilcoxon_signed_rank(std::span<const double> xs,
                                                   std::span<const double> ys) {
  // Mismatched lengths are a caller bug, but "no result" is a kinder
  // failure mode than reading past the shorter span in Release builds.
  if (xs.size() != ys.size()) return std::nullopt;
  std::vector<double> d(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) d[i] = xs[i] - ys[i];
  return wilcoxon_signed_rank(d);
}

std::optional<RankSumResult> wilcoxon_rank_sum(std::span<const double> xs,
                                               std::span<const double> ys) {
  // Non-finite observations (the fleet layer's NaN undefined-metric
  // sentinel, infs from degenerate ratios) have no defined rank; drop them
  // so a raw metric column can stream in unfiltered, and report a defined
  // no-result (nullopt) when either sample has nothing testable left.
  std::vector<double> pooled;
  pooled.reserve(xs.size() + ys.size());
  for (double x : xs)
    if (std::isfinite(x)) pooled.push_back(x);
  const size_t n1 = pooled.size();
  for (double y : ys)
    if (std::isfinite(y)) pooled.push_back(y);
  const size_t n2 = pooled.size() - n1;
  if (n1 == 0 || n2 == 0) return std::nullopt;
  const size_t n = n1 + n2;

  // Midranks of the pooled sample by signed value, with the tie structure
  // collected in the same pass. tie_term > 0 iff any tie group exists.
  double tie_term = 0.0;
  auto ranks = midranks_signed(pooled, tie_term);
  const bool has_ties = tie_term > 0.0;

  double r1 = 0.0;
  for (size_t i = 0; i < n1; ++i) r1 += ranks[i];

  RankSumResult out;
  out.n1 = n1;
  out.n2 = n2;
  out.u1 = r1 - static_cast<double>(n1) * (static_cast<double>(n1) + 1.0) / 2.0;

  const double dn1 = static_cast<double>(n1);
  const double dn2 = static_cast<double>(n2);
  const double dn = static_cast<double>(n);
  const double mean_u = dn1 * dn2 / 2.0;

  if (!has_ties && n1 <= 12 && n2 <= 12) {
    out.p_value = exact_rank_sum_two_sided_p(static_cast<int>(n1),
                                             static_cast<int>(n2), out.u1);
    out.z = exact_z(out.u1 - mean_u, dn1 * dn2 * (dn + 1.0) / 12.0);
  } else {
    // Ties shrink the variance by the pooled tie term.
    const auto approx = normal_approx(
        out.u1 - mean_u,
        dn1 * dn2 / 12.0 * ((dn + 1.0) - tie_term / (dn * (dn - 1.0))));
    out.z = approx.z;
    out.p_value = approx.p_value;
  }
  out.effect_size_r = effect_size(out.z, dn);
  return out;
}

HolmResult holm_bonferroni(std::span<const double> p_values, double alpha) {
  const size_t m = p_values.size();
  HolmResult out;
  out.reject.assign(m, false);
  out.adjusted_p.assign(m, 1.0);
  if (m == 0) return out;

  // NaN p-values (a degenerate test upstream) sort as "no evidence": they
  // compare as 1.0 so the ordering stays a strict weak order and a NaN can
  // never be rejected, rather than letting NaN comparisons scramble the
  // step-down sequence.
  std::vector<double> ps(p_values.begin(), p_values.end());
  for (double& p : ps)
    if (std::isnan(p)) p = 1.0;

  std::vector<size_t> order(m);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return ps[a] < ps[b]; });

  // Step-down: reject while p_(k) <= alpha / (m - k); stop at first failure.
  bool stopped = false;
  double running_max = 0.0;
  for (size_t k = 0; k < m; ++k) {
    size_t idx = order[k];
    double factor = static_cast<double>(m - k);
    double adj = std::min(1.0, ps[idx] * factor);
    running_max = std::max(running_max, adj);  // enforce monotonicity
    out.adjusted_p[idx] = running_max;
    if (!stopped && ps[idx] <= alpha / factor) {
      out.reject[idx] = true;
    } else {
      stopped = true;
    }
  }
  return out;
}

}  // namespace nbv6::stats
