// Fleet-statistics tests: the unpaired rank-sum test against hand-computed
// exact p-values, the streaming CDF/quantile accumulator against the
// sorted-vector reference, Holm panel adjustment against hand-computed
// sets, and the acceptance bar — the Wilcoxon group-comparison report is
// bit-identical across 1, 4, and 8 engine lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/fleet_analysis.h"
#include "engine/fleet.h"
#include "engine/run_spec.h"
#include "engine/thread_pool.h"
#include "stats/descriptive.h"
#include "stats/fleet_stats.h"
#include "stats/rng.h"
#include "stats/wilcoxon.h"
#include "testutil.h"
#include "traffic/service_catalog.h"

namespace nbv6 {
namespace {

// --------------------------------------------------- Wilcoxon rank-sum

TEST(RankSum, FullySeparatedExactP) {
  // xs all below ys: U1 = 0. Only {1,2,3} of C(6,3) = 20 rank subsets
  // reaches the minimum sum, so two-sided p = 2/20 = 0.1 (scipy
  // mannwhitneyu, method="exact", agrees).
  std::vector<double> xs{1, 2, 3}, ys{4, 5, 6};
  auto r = stats::wilcoxon_rank_sum(xs, ys);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->n1, 3u);
  EXPECT_EQ(r->n2, 3u);
  EXPECT_DOUBLE_EQ(r->u1, 0.0);
  EXPECT_NEAR(r->p_value, 0.1, 1e-12);
  EXPECT_LT(r->z, 0.0);  // first sample tends smaller
  // z from the exact variance: (0 - 4.5) / sqrt(3*3*7/12).
  EXPECT_NEAR(r->z, -4.5 / std::sqrt(5.25), 1e-12);
}

TEST(RankSum, SwappedSamplesMirror) {
  std::vector<double> xs{1, 2, 3}, ys{4, 5, 6};
  auto fwd = stats::wilcoxon_rank_sum(xs, ys);
  auto rev = stats::wilcoxon_rank_sum(ys, xs);
  ASSERT_TRUE(fwd && rev);
  EXPECT_DOUBLE_EQ(rev->u1, 9.0);  // U1 + U2 = n1 * n2
  EXPECT_DOUBLE_EQ(fwd->p_value, rev->p_value);
  EXPECT_DOUBLE_EQ(fwd->z, -rev->z);
  EXPECT_DOUBLE_EQ(fwd->effect_size_r, -rev->effect_size_r);
}

TEST(RankSum, UnequalSizesExactP) {
  // xs = {5,6,7} above ys = {1,2,3,4}: U1 = 12 = n1*n2 (max). One of
  // C(7,3) = 35 subsets per tail: p = 2/35.
  std::vector<double> xs{5, 6, 7}, ys{1, 2, 3, 4};
  auto r = stats::wilcoxon_rank_sum(xs, ys);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->u1, 12.0);
  EXPECT_NEAR(r->p_value, 2.0 / 35.0, 1e-12);
  EXPECT_GT(r->z, 0.0);
}

TEST(RankSum, IdenticalSamplesNoEvidence) {
  std::vector<double> xs{1, 2, 3, 4}, ys{1, 2, 3, 4};
  auto r = stats::wilcoxon_rank_sum(xs, ys);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->u1, 8.0);  // n1 * n2 / 2: dead centre
  EXPECT_DOUBLE_EQ(r->z, 0.0);
  EXPECT_DOUBLE_EQ(r->p_value, 1.0);
}

TEST(RankSum, AllValuesTiedNoVariance) {
  std::vector<double> xs{2, 2, 2}, ys{2, 2, 2, 2};
  auto r = stats::wilcoxon_rank_sum(xs, ys);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->p_value, 1.0);
  EXPECT_DOUBLE_EQ(r->z, 0.0);
}

TEST(RankSum, EmptySampleRejected) {
  std::vector<double> xs{1.0}, empty;
  EXPECT_FALSE(stats::wilcoxon_rank_sum(xs, empty).has_value());
  EXPECT_FALSE(stats::wilcoxon_rank_sum(empty, xs).has_value());
}

TEST(RankSum, NormalApproximationSeparatesShiftedSamples) {
  // Large no-overlap samples take the normal-approximation path (n > 12)
  // and must still be decisively significant with the right sign.
  std::vector<double> xs, ys;
  for (int i = 0; i < 30; ++i) {
    xs.push_back(10.0 + i);
    ys.push_back(100.0 + i);
  }
  auto r = stats::wilcoxon_rank_sum(xs, ys);
  ASSERT_TRUE(r.has_value());
  EXPECT_LT(r->p_value, 1e-9);
  EXPECT_LT(r->z, -6.0);
  EXPECT_LT(r->effect_size_r, -0.8);

  // Interleaved samples: no separation, high p.
  std::vector<double> a, b;
  for (int i = 0; i < 30; ++i) (i % 2 == 0 ? a : b).push_back(i);
  auto r2 = stats::wilcoxon_rank_sum(a, b);
  ASSERT_TRUE(r2.has_value());
  EXPECT_GT(r2->p_value, 0.5);
}

TEST(RankSum, NegativeValuesHandled) {
  // Signed-value ranking must keep ordering intact for negative inputs.
  std::vector<double> xs{-3, -2, -1}, ys{1, 2, 3};
  auto r = stats::wilcoxon_rank_sum(xs, ys);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->u1, 0.0);
  EXPECT_NEAR(r->p_value, 0.1, 1e-12);
}

// -------------------------------------------- rank-sum degenerate inputs
// Raw fleet metric columns stream in with NaN undefined-value sentinels;
// every degenerate shape must yield a defined no-result (nullopt) or a
// defined no-evidence result — never NaN statistics, never UB.

TEST(RankSumDegenerate, NanObservationsDropped) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> xs{nan, 1.0, 2.0, nan, 3.0};
  std::vector<double> ys{4.0, nan, 5.0, 6.0};
  auto dirty = stats::wilcoxon_rank_sum(xs, ys);
  std::vector<double> cx{1.0, 2.0, 3.0}, cy{4.0, 5.0, 6.0};
  auto clean = stats::wilcoxon_rank_sum(cx, cy);
  ASSERT_TRUE(dirty.has_value());
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(dirty->n1, clean->n1);
  EXPECT_EQ(dirty->n2, clean->n2);
  EXPECT_DOUBLE_EQ(dirty->u1, clean->u1);
  EXPECT_DOUBLE_EQ(dirty->p_value, clean->p_value);
}

TEST(RankSumDegenerate, AllNanSideNoResult) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> xs{nan, nan}, ys{1.0, 2.0};
  EXPECT_FALSE(stats::wilcoxon_rank_sum(xs, ys).has_value());
  EXPECT_FALSE(stats::wilcoxon_rank_sum(ys, xs).has_value());
}

TEST(RankSumDegenerate, SingleObservationEachSideDefined) {
  std::vector<double> xs{1.0}, ys{2.0};
  auto r = stats::wilcoxon_rank_sum(xs, ys);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->n1, 1u);
  EXPECT_EQ(r->n2, 1u);
  // 1-vs-1 carries no evidence: exact two-sided p = 1.
  EXPECT_DOUBLE_EQ(r->p_value, 1.0);
  EXPECT_FALSE(std::isnan(r->z));
  EXPECT_FALSE(std::isnan(r->effect_size_r));
}

TEST(RankSumDegenerate, SingleTiedPairNoVariance) {
  std::vector<double> xs{2.0}, ys{2.0};
  auto r = stats::wilcoxon_rank_sum(xs, ys);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->p_value, 1.0);
  EXPECT_DOUBLE_EQ(r->z, 0.0);
}

TEST(CompareGroupsDegenerate, EmptyAndUndefinedGroupsYieldNoRows) {
  // A fleet where one comparison group is empty and another has all-NaN
  // metric values: compare_groups must skip those rows (a defined
  // no-result) and holm-adjust whatever remains without incident.
  core::FleetMetricMatrix matrix;
  matrix.metrics = {core::FleetMetric::v6_byte_fraction,
                    core::FleetMetric::external_gb};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  matrix.values = {{nan, nan, nan, nan}, {1.0, 2.0, 3.0, 4.0}};

  std::vector<engine::ResidenceTraits> traits(4);
  traits[0].dual_stack_isp = true;
  traits[1].dual_stack_isp = true;
  traits[2].dual_stack_isp = true;
  traits[3].dual_stack_isp = true;  // v4_only group is EMPTY

  auto cmp = core::compare_groups(matrix, traits, core::FleetGroup::dual_stack,
                                  core::FleetGroup::v4_only);
  EXPECT_TRUE(cmp.rows.empty());  // empty group: nothing testable, no crash

  // Against a non-empty complement, the all-NaN metric row is skipped but
  // the defined metric still tests.
  traits[3].dual_stack_isp = false;
  cmp = core::compare_groups(matrix, traits, core::FleetGroup::dual_stack,
                             core::FleetGroup::v4_only);
  ASSERT_EQ(cmp.rows.size(), 1u);
  EXPECT_EQ(cmp.rows[0].metric,
            core::to_string(core::FleetMetric::external_gb));
  EXPECT_FALSE(std::isnan(cmp.rows[0].p_holm));
}

// ------------------------------------------------------- StreamingCdf

TEST(StreamingCdf, MomentsMatchExactStatistics) {
  stats::Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.uniform(0.0, 1.0));

  stats::StreamingCdf acc(0.0, 1.0, 128);
  acc.add(xs);
  EXPECT_EQ(acc.count(), 500u);
  EXPECT_DOUBLE_EQ(acc.min(), stats::min(xs));
  EXPECT_DOUBLE_EQ(acc.max(), stats::max(xs));
  EXPECT_NEAR(acc.mean(), stats::mean(xs), 1e-12);
  EXPECT_NEAR(acc.stddev(), stats::stddev(xs), 1e-12);
}

TEST(StreamingCdf, QuantilesTrackSortedVectorReference) {
  stats::Rng rng(42);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(rng.uniform(0.0, 1.0));

  const int bins = 256;
  const double bin_width = 1.0 / bins;
  stats::StreamingCdf acc(0.0, 1.0, bins);
  acc.add(xs);

  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    double ref = stats::quantile(xs, q);
    // Linear interpolation inside a bin bounds the error by one bin width
    // (plus the rank-definition gap, well under a bin at n = 2000).
    EXPECT_NEAR(acc.quantile(q), ref, 2 * bin_width) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(acc.quantile(0.0), stats::min(xs));
  EXPECT_DOUBLE_EQ(acc.quantile(1.0), stats::max(xs));
}

TEST(StreamingCdf, CdfTracksEmpiricalReference) {
  stats::Rng rng(99);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.uniform(0.0, 1.0));
  stats::StreamingCdf acc(0.0, 1.0, 256);
  acc.add(xs);
  stats::Ecdf ref(xs);

  for (double x : {0.05, 0.2, 0.5, 0.8, 0.95}) {
    EXPECT_NEAR(acc.cdf(x), ref(x), 0.02) << "x=" << x;
  }
  EXPECT_DOUBLE_EQ(acc.cdf(stats::min(xs) - 0.001), 0.0);
  EXPECT_DOUBLE_EQ(acc.cdf(stats::max(xs)), 1.0);
}

TEST(StreamingCdf, MergeEqualsSinglePass) {
  stats::Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 800; ++i) xs.push_back(rng.uniform(0.0, 2.0));

  stats::StreamingCdf whole(0.0, 2.0, 64);
  whole.add(xs);

  // Four shard accumulators merged in index order — the fleet reduction
  // pattern. Bin counts are integers, so the merged CDF/quantile state is
  // exactly the single-pass state; moments agree to rounding.
  stats::StreamingCdf merged(0.0, 2.0, 64);
  for (int shard = 0; shard < 4; ++shard) {
    stats::StreamingCdf part(0.0, 2.0, 64);
    for (size_t i = static_cast<size_t>(shard) * 200;
         i < static_cast<size_t>(shard + 1) * 200; ++i)
      part.add(xs[i]);
    merged.merge(part);
  }

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  for (int b = 0; b < whole.bins(); ++b)
    EXPECT_EQ(merged.bin_count(b), whole.bin_count(b)) << "bin " << b;
  for (double q : {0.1, 0.5, 0.9})
    EXPECT_DOUBLE_EQ(merged.quantile(q), whole.quantile(q));
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(merged.stddev(), whole.stddev(), 1e-12);
}

TEST(StreamingCdf, OutOfRangeValuesClampIntoEdgeBins) {
  stats::StreamingCdf acc(0.0, 1.0, 10);
  acc.add(-5.0);
  acc.add(0.5);
  acc.add(7.0);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.min(), -5.0);  // exact extremes survive clamping
  EXPECT_DOUBLE_EQ(acc.max(), 7.0);
  EXPECT_EQ(acc.bin_count(0), 1u);
  EXPECT_EQ(acc.bin_count(9), 1u);
  EXPECT_DOUBLE_EQ(acc.quantile(0.0), -5.0);
  EXPECT_DOUBLE_EQ(acc.quantile(1.0), 7.0);
}

TEST(StreamingCdf, InvalidLayoutsThrow) {
  EXPECT_THROW(stats::StreamingCdf(1.0, 1.0, 8), std::invalid_argument);
  EXPECT_THROW(stats::StreamingCdf(2.0, 1.0, 8), std::invalid_argument);

  stats::StreamingCdf a(0.0, 1.0, 8);
  stats::StreamingCdf wrong_range(0.0, 2.0, 8);
  stats::StreamingCdf wrong_bins(0.0, 1.0, 16);
  EXPECT_THROW(a.merge(wrong_range), std::invalid_argument);
  EXPECT_THROW(a.merge(wrong_bins), std::invalid_argument);
}

TEST(StreamingCdf, RejectedMergeLeavesTheTargetUntouched) {
  // The layout guard gives the strong exception guarantee: after a caught
  // mismatch the target accumulator must be bit-for-bit what it was before
  // — no half-merged bins, no polluted moments.
  stats::StreamingCdf acc(0.0, 1.0, 8);
  acc.add(0.25);
  acc.add(0.75);
  acc.add(2.0);  // clamps into the top bin, extreme survives
  const auto count_before = acc.count();
  const double mean_before = acc.mean();
  const double max_before = acc.max();
  std::vector<std::uint64_t> bins_before;
  for (std::size_t b = 0; b < 8; ++b) bins_before.push_back(acc.bin_count(b));

  stats::StreamingCdf incompatible(0.0, 2.0, 8);
  incompatible.add(1.5);
  EXPECT_FALSE(acc.compatible_with(incompatible));
  EXPECT_THROW(acc.merge(incompatible), std::invalid_argument);

  EXPECT_EQ(acc.count(), count_before);
  EXPECT_DOUBLE_EQ(acc.mean(), mean_before);
  EXPECT_DOUBLE_EQ(acc.max(), max_before);
  for (std::size_t b = 0; b < 8; ++b)
    EXPECT_EQ(acc.bin_count(b), bins_before[b]) << "bin " << b;

  // A compatible merge still works after the rejection.
  stats::StreamingCdf ok(0.0, 1.0, 8);
  ok.add(0.5);
  EXPECT_TRUE(acc.compatible_with(ok));
  acc.merge(ok);
  EXPECT_EQ(acc.count(), count_before + 1);
}

TEST(StreamingCdf, HugeAndInfiniteValuesClampSafely) {
  // Huge finite values land in the edge bins without the float-to-integer
  // cast ever going out of range (UB); infinities are skipped like NaN so
  // they cannot poison the Welford moments.
  const double inf = std::numeric_limits<double>::infinity();
  stats::StreamingCdf acc(0.0, 1.0, 8);
  acc.add(1e300);
  acc.add(-1e300);
  acc.add(inf);
  acc.add(-inf);
  acc.add(0.5);
  EXPECT_EQ(acc.count(), 3u);  // the two infinities carry no information
  EXPECT_EQ(acc.bin_count(0), 1u);
  EXPECT_EQ(acc.bin_count(7), 1u);
  EXPECT_DOUBLE_EQ(acc.min(), -1e300);
  EXPECT_DOUBLE_EQ(acc.max(), 1e300);
  EXPECT_DOUBLE_EQ(acc.cdf(0.75), 2.0 / 3.0);  // {-1e300, 0.5} below
  // Moments stay NaN-free (the squared deviations of ~1e300 values
  // legitimately overflow the double range, so stddev may be inf).
  EXPECT_TRUE(std::isfinite(acc.mean()));
  EXPECT_FALSE(std::isnan(acc.stddev()));
}

TEST(StreamingCdf, NanValuesAreSkipped) {
  // NaN is the fleet layer's undefined-metric sentinel: streaming a raw
  // metric column must behave exactly like streaming the defined values.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> xs{nan, 0.25, nan, 0.75, nan};
  stats::StreamingCdf acc(0.0, 1.0, 16);
  acc.add(xs);
  EXPECT_EQ(acc.count(), 2u);
  EXPECT_DOUBLE_EQ(acc.min(), 0.25);
  EXPECT_DOUBLE_EQ(acc.max(), 0.75);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.5);
}

TEST(StreamingCdf, EmptyAccumulatorIsInert) {
  stats::StreamingCdf acc(0.0, 1.0, 8);
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(acc.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  auto s = acc.summary();
  EXPECT_EQ(s.count, 0u);

  stats::StreamingCdf other(0.0, 1.0, 8);
  other.add(0.25);
  other.merge(acc);  // merging an empty accumulator is the identity
  EXPECT_EQ(other.count(), 1u);
  EXPECT_DOUBLE_EQ(other.mean(), 0.25);
}

// ------------------------------------------------------- Holm panels

TEST(HolmPanel, HandComputedAdjustment) {
  // Raw p = {0.01, 0.04, 0.03, 0.005}, m = 4. Sorted step-down:
  //   0.005*4 = 0.02, 0.01*3 = 0.03, 0.03*2 = 0.06, 0.04*1 = 0.04 -> 0.06
  // after the monotonicity clamp. At alpha = 0.05 the step-down rejects
  // 0.005 (<= 0.0125) and 0.01 (<= 0.0167), then stops at 0.03 > 0.025.
  std::vector<stats::PanelRow> rows(4);
  rows[0].p_raw = 0.01;
  rows[1].p_raw = 0.04;
  rows[2].p_raw = 0.03;
  rows[3].p_raw = 0.005;
  stats::holm_adjust(rows, 0.05);

  EXPECT_NEAR(rows[0].p_holm, 0.03, 1e-12);
  EXPECT_NEAR(rows[1].p_holm, 0.06, 1e-12);
  EXPECT_NEAR(rows[2].p_holm, 0.06, 1e-12);
  EXPECT_NEAR(rows[3].p_holm, 0.02, 1e-12);
  EXPECT_TRUE(rows[0].significant);
  EXPECT_FALSE(rows[1].significant);
  EXPECT_FALSE(rows[2].significant);
  EXPECT_TRUE(rows[3].significant);
}

TEST(HolmPanel, SingleRowUnchanged) {
  std::vector<stats::PanelRow> rows(1);
  rows[0].p_raw = 0.04;
  stats::holm_adjust(rows, 0.05);
  EXPECT_NEAR(rows[0].p_holm, 0.04, 1e-12);
  EXPECT_TRUE(rows[0].significant);
}

// ------------------------------------- fleet report lane determinism

// Two GroupComparisons must agree bit-for-bit (every double compared with
// ==): the acceptance bar for the fleet-statistics fan-out.
void expect_identical_comparison(const core::GroupComparison& a,
                                 const core::GroupComparison& b) {
  EXPECT_EQ(a.group_a, b.group_a);
  EXPECT_EQ(a.group_b, b.group_b);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (size_t i = 0; i < a.rows.size(); ++i) {
    const auto& ra = a.rows[i];
    const auto& rb = b.rows[i];
    EXPECT_EQ(ra.metric, rb.metric);
    EXPECT_EQ(ra.paired, rb.paired);
    EXPECT_EQ(ra.n_a, rb.n_a);
    EXPECT_EQ(ra.n_b, rb.n_b);
    EXPECT_EQ(ra.median_a, rb.median_a);
    EXPECT_EQ(ra.median_b, rb.median_b);
    EXPECT_EQ(ra.z, rb.z);
    EXPECT_EQ(ra.effect_r, rb.effect_r);
    EXPECT_EQ(ra.p_raw, rb.p_raw);
    EXPECT_EQ(ra.p_holm, rb.p_holm);
    EXPECT_EQ(ra.significant, rb.significant);
  }
}

TEST(FleetStatsReport, BitIdenticalAcrossOneFourAndEightLanes) {
  auto catalog = traffic::build_paper_catalog();
  engine::FleetConfig cfg;
  cfg.residences = 48;
  cfg.days = 2;
  cfg.seed = 20260726;
  auto sampled = engine::sample_stage(cfg, catalog);

  std::vector<core::FleetStatsReport> reports;
  for (int lanes : {1, 4, 8}) {
    std::unique_ptr<engine::ThreadPool> pool;
    if (lanes > 1) pool = std::make_unique<engine::ThreadPool>(lanes - 1);
    auto result = engine::simulate_fleet(catalog, sampled, pool.get());
    reports.push_back(core::fleet_stats_report(result, pool.get()));
  }

  const auto& ref = reports[0];
  ASSERT_FALSE(ref.comparisons.empty());
  ASSERT_FALSE(ref.paired.rows.empty());
  for (size_t r = 1; r < reports.size(); ++r) {
    const auto& cur = reports[r];
    // Metric matrix: every extracted value bit-identical.
    ASSERT_EQ(cur.matrix.metrics, ref.matrix.metrics);
    for (size_t m = 0; m < ref.matrix.values.size(); ++m) {
      ASSERT_EQ(cur.matrix.values[m].size(), ref.matrix.values[m].size());
      for (size_t i = 0; i < ref.matrix.values[m].size(); ++i) {
        double va = ref.matrix.values[m][i];
        double vb = cur.matrix.values[m][i];
        if (std::isnan(va)) {
          EXPECT_TRUE(std::isnan(vb));
        } else {
          EXPECT_EQ(va, vb);
        }
      }
    }
    // Wilcoxon panels with Holm-corrected p-values: bit-identical.
    ASSERT_EQ(cur.comparisons.size(), ref.comparisons.size());
    for (size_t c = 0; c < ref.comparisons.size(); ++c)
      expect_identical_comparison(cur.comparisons[c], ref.comparisons[c]);
    expect_identical_comparison(cur.paired, ref.paired);
    // Population distributions: identical bin state and summaries.
    ASSERT_EQ(cur.distributions.size(), ref.distributions.size());
    for (size_t d = 0; d < ref.distributions.size(); ++d) {
      const auto& da = ref.distributions[d];
      const auto& db = cur.distributions[d];
      EXPECT_EQ(da.metric, db.metric);
      EXPECT_EQ(da.defined, db.defined);
      EXPECT_EQ(da.cdf.count(), db.cdf.count());
      for (int b = 0; b < da.cdf.bins(); ++b)
        EXPECT_EQ(da.cdf.bin_count(b), db.cdf.bin_count(b));
      for (double q : {0.25, 0.5, 0.75})
        EXPECT_EQ(da.cdf.quantile(q), db.cdf.quantile(q));
    }
  }
}

TEST(FleetStatsReport, PanelsSeparateKnownStrata) {
  // A fleet with clearly separated strata: broken-CPE and v4-only homes
  // must sit significantly below their counterparts on the byte-fraction
  // metric after Holm correction.
  auto catalog = traffic::build_paper_catalog();
  engine::FleetConfig cfg;
  cfg.residences = 96;
  cfg.days = 2;
  cfg.seed = 7;
  cfg.dual_stack_isp_frac = 0.7;
  cfg.broken_v6_frac = 0.3;
  engine::ThreadPool pool(3);
  auto result = testutil::simulate_scenario(cfg, catalog, &pool);
  ASSERT_EQ(result.traits.size(), 96u);

  auto report = core::fleet_stats_report(result, &pool);
  bool found = false;
  for (const auto& cmp : report.comparisons) {
    if (cmp.group_a != core::FleetGroup::dual_stack ||
        cmp.group_b != core::FleetGroup::v4_only)
      continue;
    for (const auto& row : cmp.rows) {
      if (row.metric != core::to_string(core::FleetMetric::v6_byte_fraction))
        continue;
      found = true;
      EXPECT_GT(row.z, 0.0);  // dual-stack homes push more v6 bytes
      EXPECT_TRUE(row.significant) << "p_holm=" << row.p_holm;
      EXPECT_LE(row.p_holm, 0.05);
      EXPECT_GE(row.p_holm, row.p_raw);  // Holm never helps
    }
  }
  EXPECT_TRUE(found);
}

TEST(FleetStatsReport, MisalignedTraitsRejected) {
  auto catalog = traffic::build_paper_catalog();
  engine::FleetConfig cfg;
  cfg.residences = 4;
  cfg.days = 1;
  auto sampled = engine::sample_stage(cfg, catalog);

  // A hand-built SampledFleet with mismatched sizes fails up front...
  engine::SampledFleet bad;
  bad.configs = sampled.configs;
  bad.traits.assign(8, engine::ResidenceTraits{});
  EXPECT_THROW(engine::simulate_fleet(catalog, bad, nullptr),
               std::invalid_argument);

  // ...and a result without traits (raw config run) cannot feed the
  // group-comparison report.
  auto traitless = engine::simulate_fleet(catalog, sampled.configs, nullptr);
  EXPECT_THROW(core::fleet_stats_report(traitless, nullptr),
               std::invalid_argument);
}

TEST(ExtractMetrics, PoolAndSequentialAgree) {
  auto catalog = traffic::build_paper_catalog();
  engine::FleetConfig cfg;
  cfg.residences = 12;
  cfg.days = 2;
  engine::ThreadPool pool(3);
  auto result = testutil::simulate_scenario(cfg, catalog, &pool);

  auto metrics = core::default_fleet_metrics();
  auto par = core::extract_metrics(result, metrics, &pool);
  auto seq = core::extract_metrics(result, metrics, nullptr);
  ASSERT_EQ(par.values.size(), seq.values.size());
  for (size_t m = 0; m < par.values.size(); ++m)
    for (size_t i = 0; i < par.values[m].size(); ++i) {
      if (std::isnan(seq.values[m][i])) {
        EXPECT_TRUE(std::isnan(par.values[m][i]));
      } else {
        EXPECT_EQ(par.values[m][i], seq.values[m][i]);
      }
    }
}

TEST(GroupMembers, PartitionsAndComplements) {
  auto catalog = traffic::build_paper_catalog();
  engine::FleetConfig cfg;
  cfg.residences = 200;
  cfg.days = 1;
  auto sampled = engine::sample_stage(cfg, catalog);
  ASSERT_EQ(sampled.traits.size(), 200u);

  auto all = core::group_members(sampled.traits, core::FleetGroup::all);
  EXPECT_EQ(all.size(), 200u);

  // dual_stack / v4_only partition the fleet; healthy_v6 / broken_cpe
  // partition dual_stack; opt_out / fully_visible partition the fleet.
  auto ds = core::group_members(sampled.traits, core::FleetGroup::dual_stack);
  auto v4 = core::group_members(sampled.traits, core::FleetGroup::v4_only);
  EXPECT_EQ(ds.size() + v4.size(), 200u);
  auto healthy =
      core::group_members(sampled.traits, core::FleetGroup::healthy_v6);
  auto broken =
      core::group_members(sampled.traits, core::FleetGroup::broken_cpe);
  EXPECT_EQ(healthy.size() + broken.size(), ds.size());
  auto opt = core::group_members(sampled.traits, core::FleetGroup::opt_out);
  auto vis =
      core::group_members(sampled.traits, core::FleetGroup::fully_visible);
  EXPECT_EQ(opt.size() + vis.size(), 200u);

  // Traits must match the sampled configs they describe.
  for (size_t i : v4)
    EXPECT_DOUBLE_EQ(sampled.configs[i].device_v6_ok_frac, 0.0);
  for (size_t i : opt) EXPECT_LT(sampled.configs[i].visibility, 1.0);
  for (size_t i :
       core::group_members(sampled.traits, core::FleetGroup::active))
    EXPECT_FALSE(sampled.traits[i].vacant);
}

}  // namespace
}  // namespace nbv6
