#include <gtest/gtest.h>

#include <cmath>

#include "stats/descriptive.h"
#include "stats/loess.h"
#include "stats/rng.h"
#include "stats/stl.h"

namespace nbv6::stats {
namespace {

constexpr double kPi = 3.14159265358979323846;

// ------------------------------------------------------------ LOESS

TEST(Loess, ReproducesConstant) {
  std::vector<double> ys(50, 7.5);
  LoessConfig cfg;
  auto out = loess(ys, cfg);
  for (double v : out) EXPECT_NEAR(v, 7.5, 1e-9);
}

TEST(Loess, Degree1ReproducesLine) {
  // Local linear regression fits straight lines exactly, interior and edge.
  std::vector<double> ys(60);
  for (size_t i = 0; i < ys.size(); ++i) ys[i] = 2.0 * static_cast<double>(i) - 5.0;
  LoessConfig cfg;
  cfg.span_fraction = 0.4;
  auto out = loess(ys, cfg);
  for (size_t i = 0; i < ys.size(); ++i) EXPECT_NEAR(out[i], ys[i], 1e-8) << i;
}

TEST(Loess, DegenerateWindowFallsBackToMean) {
  // In a two-point window the neighbour sits on the window edge and weighs
  // zero, so each local fit sees one x: no slope is defined and the fit
  // falls back to the weighted mean, which is the point itself.
  std::vector<double> ys{3.0, -1.0, 4.0, 1.5, -9.0, 2.6};
  LoessConfig cfg;
  cfg.span_points = 2;
  EXPECT_EQ(loess(ys, cfg), ys);
}

TEST(Loess, SmoothsNoiseTowardTrend) {
  Rng rng(11);
  std::vector<double> ys(200);
  for (size_t i = 0; i < ys.size(); ++i)
    ys[i] = 0.05 * static_cast<double>(i) + rng.normal(0, 0.5);
  LoessConfig cfg;
  cfg.span_fraction = 0.3;
  auto out = loess(ys, cfg);
  // Residuals of the smooth against the true trend shrink vs raw noise.
  double raw = 0, smooth = 0;
  for (size_t i = 0; i < ys.size(); ++i) {
    double truth = 0.05 * static_cast<double>(i);
    raw += std::abs(ys[i] - truth);
    smooth += std::abs(out[i] - truth);
  }
  EXPECT_LT(smooth, raw * 0.5);
}

TEST(Loess, EmptyAndSingle) {
  LoessConfig cfg;
  EXPECT_TRUE(loess(std::vector<double>{}, cfg).empty());
  auto one = loess(std::vector<double>{42.0}, cfg);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 42.0);
}

// ------------------------------------------------------------ STL

std::vector<double> synth_series(size_t n, double trend_slope,
                                 double daily_amp, double noise_sd,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> ys(n);
  for (size_t i = 0; i < n; ++i) {
    double t = static_cast<double>(i);
    ys[i] = 0.5 + trend_slope * t +
            daily_amp * std::sin(2 * kPi * t / 24.0) +
            rng.normal(0, noise_sd);
  }
  return ys;
}

TEST(Stl, ReconstructionIdentity) {
  auto ys = synth_series(24 * 14, 0.0005, 0.2, 0.05, 12);
  auto r = stl_decompose(ys, 24);
  ASSERT_EQ(r.trend.size(), ys.size());
  for (size_t i = 0; i < ys.size(); ++i) {
    EXPECT_NEAR(r.trend[i] + r.seasonal[i] + r.remainder[i], ys[i], 1e-9);
  }
}

TEST(Stl, RecoversSeasonalAmplitude) {
  auto ys = synth_series(24 * 21, 0.0, 0.3, 0.02, 13);
  auto r = stl_decompose(ys, 24);
  // Seasonal component should swing roughly ±0.3 mid-series.
  double lo = 0, hi = 0;
  for (size_t i = ys.size() / 4; i < 3 * ys.size() / 4; ++i) {
    lo = std::min(lo, r.seasonal[i]);
    hi = std::max(hi, r.seasonal[i]);
  }
  EXPECT_NEAR(hi, 0.3, 0.1);
  EXPECT_NEAR(lo, -0.3, 0.1);
}

TEST(Stl, TrendFollowsSlope) {
  auto ys = synth_series(24 * 21, 0.001, 0.2, 0.02, 14);
  auto r = stl_decompose(ys, 24);
  // Compare trend rise over the middle half against the truth.
  size_t a = ys.size() / 4, b = 3 * ys.size() / 4;
  double rise = r.trend[b] - r.trend[a];
  double truth = 0.001 * static_cast<double>(b - a);
  EXPECT_NEAR(rise, truth, truth * 0.5);
}

TEST(Stl, SeasonalAveragesToZero) {
  auto ys = synth_series(24 * 21, 0.0, 0.25, 0.05, 15);
  auto r = stl_decompose(ys, 24);
  EXPECT_NEAR(mean(r.seasonal), 0.0, 0.03);
}

// ------------------------------------------------------------ MSTL

TEST(Mstl, ReconstructionIdentity) {
  Rng rng(17);
  const size_t n = 24 * 7 * 6;
  std::vector<double> ys(n);
  for (size_t i = 0; i < n; ++i) {
    double t = static_cast<double>(i);
    ys[i] = 0.5 + 0.2 * std::sin(2 * kPi * t / 24.0) +
            0.1 * std::sin(2 * kPi * t / 168.0) + rng.normal(0, 0.03);
  }
  const std::vector<int> periods{24, 168};
  auto r = mstl_decompose(ys, periods);
  ASSERT_EQ(r.seasonals.size(), 2u);
  for (size_t i = 0; i < n; ++i) {
    double sum = r.trend[i] + r.seasonals[0][i] + r.seasonals[1][i] +
                 r.remainder[i];
    EXPECT_NEAR(sum, ys[i], 1e-9);
  }
}

TEST(Mstl, SeparatesTwoPeriods) {
  Rng rng(18);
  const size_t n = 24 * 7 * 8;
  std::vector<double> ys(n);
  for (size_t i = 0; i < n; ++i) {
    double t = static_cast<double>(i);
    ys[i] = 0.3 * std::sin(2 * kPi * t / 24.0) +
            0.15 * std::sin(2 * kPi * t / 168.0) + rng.normal(0, 0.02);
  }
  const std::vector<int> periods{24, 168};
  auto r = mstl_decompose(ys, periods);
  // Daily amplitude ~0.3, weekly ~0.15 (mid-series peaks).
  auto amp = [&](const std::vector<double>& s) {
    double hi = 0;
    for (size_t i = n / 4; i < 3 * n / 4; ++i) hi = std::max(hi, std::abs(s[i]));
    return hi;
  };
  EXPECT_NEAR(amp(r.seasonals[0]), 0.3, 0.12);
  EXPECT_NEAR(amp(r.seasonals[1]), 0.15, 0.12);
  EXPECT_GT(amp(r.seasonals[0]), amp(r.seasonals[1]));
}

TEST(Mstl, DropsUnsupportablePeriods) {
  std::vector<double> ys(60, 1.0);
  // 168 needs >= 336 points; 24 needs 48 and fits.
  const std::vector<int> periods{24, 168};
  auto r = mstl_decompose(ys, periods);
  EXPECT_EQ(r.seasonals.size(), 1u);
}

TEST(Mstl, NoPeriodsFallsBackToTrendOnly) {
  std::vector<double> ys(10, 2.0);
  const std::vector<int> periods{24};
  auto r = mstl_decompose(ys, periods);
  EXPECT_TRUE(r.seasonals.empty());
  for (size_t i = 0; i < ys.size(); ++i)
    EXPECT_NEAR(r.trend[i] + r.remainder[i], ys[i], 1e-9);
}

TEST(Mstl, ConstantSeriesHasZeroSeasonals) {
  std::vector<double> ys(24 * 10, 3.3);
  const std::vector<int> periods{24};
  auto r = mstl_decompose(ys, periods);
  for (double v : r.seasonals[0]) EXPECT_NEAR(v, 0.0, 1e-6);
  for (double v : r.remainder) EXPECT_NEAR(v, 0.0, 1e-6);
}

// ------------------------------------------------------------ workspace

TEST(StlWorkspaceTest, SharedWorkspaceMatchesFreshWorkspace) {
  auto ys1 = synth_series(24 * 14, 0.0005, 0.2, 0.05, 21);
  auto ys2 = synth_series(24 * 21, 0.001, 0.3, 0.02, 22);

  StlWorkspace shared;
  StlResult a1, a2;
  stl_decompose(ys1, 24, shared, a1);
  stl_decompose(ys2, 24, shared, a2);  // reused, different length

  auto b1 = stl_decompose(ys1, 24);
  auto b2 = stl_decompose(ys2, 24);
  EXPECT_EQ(a1.trend, b1.trend);
  EXPECT_EQ(a1.seasonal, b1.seasonal);
  EXPECT_EQ(a2.trend, b2.trend);
  EXPECT_EQ(a2.seasonal, b2.seasonal);
}

TEST(StlWorkspaceTest, RepeatedDecompositionsDoNotReallocate) {
  auto ys = synth_series(24 * 14, 0.0, 0.2, 0.05, 23);
  StlWorkspace ws;
  StlResult r;
  stl_decompose(ys, 24, ws, r);
  // Buffers are at their high-water marks now; further same-shape runs
  // must reuse them in place.
  const double* detrended = ws.detrended.data();
  const double* cycle = ws.cycle.data();
  const double* lowpass = ws.lowpass.data();
  const double* trend = r.trend.data();
  for (int rep = 0; rep < 3; ++rep) stl_decompose(ys, 24, ws, r);
  EXPECT_EQ(ws.detrended.data(), detrended);
  EXPECT_EQ(ws.cycle.data(), cycle);
  EXPECT_EQ(ws.lowpass.data(), lowpass);
  EXPECT_EQ(r.trend.data(), trend);
}

TEST(MstlWorkspaceTest, SharedWorkspaceMatchesFreshWorkspace) {
  Rng rng(24);
  const size_t n = 24 * 7 * 4;
  std::vector<double> ys(n);
  for (size_t i = 0; i < n; ++i) {
    double t = static_cast<double>(i);
    ys[i] = 0.2 * std::sin(2 * kPi * t / 24.0) +
            0.1 * std::sin(2 * kPi * t / 168.0) + rng.normal(0, 0.02);
  }
  const std::vector<int> periods{24, 168};
  StlWorkspace ws;
  MstlResult a;
  mstl_decompose(ys, periods, ws, a);
  mstl_decompose(ys, periods, ws, a);  // reuse
  auto b = mstl_decompose(ys, periods);
  EXPECT_EQ(a.trend, b.trend);
  ASSERT_EQ(a.seasonals.size(), b.seasonals.size());
  for (size_t k = 0; k < a.seasonals.size(); ++k)
    EXPECT_EQ(a.seasonals[k], b.seasonals[k]);
}

// ------------------------------------------------------- moving average

TEST(MovingAverage, EvenWindowCancelsPeriodicSignalExactly) {
  // The centered 2xMA at w == period sums exactly one full period with
  // half-weighted endpoints p apart (equal values), so a pure
  // period-periodic signal averages to its mean at every interior point.
  // This is the property STL's low-pass relies on; a naive symmetric
  // (w+1)-point window does not have it.
  const int period = 24;
  std::vector<double> ys(24 * 8);
  for (size_t i = 0; i < ys.size(); ++i)
    ys[i] = std::sin(2 * kPi * static_cast<double>(i) / period);
  std::vector<double> out(ys.size());
  moving_average_into(ys, period, out);
  const int h = period / 2;
  for (size_t i = static_cast<size_t>(h); i + static_cast<size_t>(h) < ys.size(); ++i)
    EXPECT_NEAR(out[i], 0.0, 1e-12) << i;
}

TEST(MovingAverage, OddWindowIsPlainCenteredMean) {
  std::vector<double> ys{1, 2, 3, 4, 5, 6, 7};
  std::vector<double> out(ys.size());
  moving_average_into(ys, 3, out);
  EXPECT_DOUBLE_EQ(out[0], 1.5);  // truncated edge: (1+2)/2
  EXPECT_DOUBLE_EQ(out[3], 4.0);
  EXPECT_DOUBLE_EQ(out[6], 6.5);
}

TEST(MovingAverage, EvenWindowReproducesLinearSeries) {
  // Centered 2xMA is symmetric, so linear trends pass through unchanged.
  std::vector<double> ys(40);
  for (size_t i = 0; i < ys.size(); ++i) ys[i] = 3.0 * static_cast<double>(i) - 7.0;
  std::vector<double> out(ys.size());
  moving_average_into(ys, 4, out);
  for (size_t i = 2; i + 2 < ys.size(); ++i) EXPECT_NEAR(out[i], ys[i], 1e-9);
}

}  // namespace
}  // namespace nbv6::stats
