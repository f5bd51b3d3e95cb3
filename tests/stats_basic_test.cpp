#include <gtest/gtest.h>

#include <map>

#include "stats/descriptive.h"
#include "stats/rng.h"

namespace nbv6::stats {
namespace {

// ------------------------------------------------------------ descriptive

TEST(Descriptive, MeanAndVariance) {
  std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Descriptive, EmptyAndSingleton) {
  std::vector<double> empty;
  std::vector<double> one{3.0};
  EXPECT_EQ(mean(empty), 0.0);
  EXPECT_EQ(variance(one), 0.0);
  EXPECT_EQ(median(one), 3.0);
  EXPECT_EQ(quantile(one, 0.99), 3.0);
}

TEST(Descriptive, QuantileType7Interpolation) {
  std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 1.75);  // numpy default agrees
}

TEST(Descriptive, QuantileUnsortedInput) {
  std::vector<double> xs{9, 1, 5, 3, 7};
  EXPECT_DOUBLE_EQ(median(xs), 5.0);
}

TEST(Descriptive, SummaryFields) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  auto s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p25, 2.0);
  EXPECT_DOUBLE_EQ(s.p75, 4.0);
}

TEST(Ecdf, StepFunction) {
  std::vector<double> xs{1, 2, 2, 3};
  Ecdf f(xs);
  EXPECT_DOUBLE_EQ(f(0.5), 0.0);
  EXPECT_DOUBLE_EQ(f(1.0), 0.25);
  EXPECT_DOUBLE_EQ(f(2.0), 0.75);
  EXPECT_DOUBLE_EQ(f(3.0), 1.0);
  EXPECT_DOUBLE_EQ(f(99.0), 1.0);
}

TEST(Ecdf, InverseQuantile) {
  std::vector<double> xs{10, 20, 30, 40};
  Ecdf f(xs);
  EXPECT_DOUBLE_EQ(f.inverse(0.25), 10.0);
  EXPECT_DOUBLE_EQ(f.inverse(0.26), 20.0);
  EXPECT_DOUBLE_EQ(f.inverse(1.0), 40.0);
}

TEST(Ecdf, CurveDedupesValues) {
  std::vector<double> xs{1, 1, 1, 2};
  auto pts = Ecdf(xs).curve();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].first, 1.0);
  EXPECT_DOUBLE_EQ(pts[0].second, 0.75);
  EXPECT_DOUBLE_EQ(pts[1].second, 1.0);
}

TEST(BoxPlot, QuartilesAndWhiskers) {
  // 1..11 plus an outlier at 100.
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 100};
  auto b = boxplot(xs);
  EXPECT_NEAR(b.median, 6.5, 1e-9);
  EXPECT_GT(b.q3, b.q1);
  ASSERT_EQ(b.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(b.outliers[0], 100.0);
  EXPECT_LE(b.whisker_high, 11.0);  // whisker clamps to data within fence
  EXPECT_DOUBLE_EQ(b.whisker_low, 1.0);
}

TEST(BoxPlot, NoOutliersWhenTight) {
  std::vector<double> xs{5, 5, 5, 5, 5};
  auto b = boxplot(xs);
  EXPECT_TRUE(b.outliers.empty());
  EXPECT_DOUBLE_EQ(b.whisker_low, 5.0);
  EXPECT_DOUBLE_EQ(b.whisker_high, 5.0);
}

// ------------------------------------------------------------ rng

TEST(Rng, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a(), b());
  Rng a2(42);
  EXPECT_NE(a2(), c());
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(7), 7u);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(4);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(5.0, 1.5), 5.0);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(DiscreteSampler, RespectsWeights) {
  std::vector<double> w{1.0, 0.0, 3.0};
  DiscreteSampler s(w);
  Rng rng(8);
  std::map<size_t, int> counts;
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[s.sample(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(DiscreteSampler, SingleBucket) {
  std::vector<double> w{2.5};
  DiscreteSampler s(w);
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s.sample(rng), 0u);
}

}  // namespace
}  // namespace nbv6::stats
