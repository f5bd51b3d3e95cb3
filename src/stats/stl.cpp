#include "stats/stl.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "stats/loess.h"

namespace nbv6::stats {

// Centered moving average of window w into `out` (no aliasing), O(n) via a
// running windowed sum; edges use the available shorter window. Applied
// twice at length `period` plus once at 3, this is STL's low-pass filter.
//
// Even windows use the standard centered 2×MA convention: half weight on
// the two endpoints, full weight in between, total weight w — the
// composition of the two half-offset w-point averages. (A plain symmetric
// window at even w would silently average w+1 points.)
void moving_average_into(std::span<const double> ys, int w,
                         std::span<double> out) {
  const auto n = static_cast<int>(ys.size());
  assert(out.size() == ys.size());
  if (n == 0) return;
  const int half = w / 2;
  const bool even = (w % 2) == 0;
  double sum = 0.0;
  int lo = 0, hi = -1;  // current clamped window [lo, hi]
  for (int i = 0; i < n; ++i) {
    const int nlo = std::max(0, i - half);
    const int nhi = std::min(n - 1, i + half);
    while (hi < nhi) sum += ys[static_cast<size_t>(++hi)];
    while (lo < nlo) sum -= ys[static_cast<size_t>(lo++)];
    if (even && i - half >= 0 && i + half <= n - 1) {
      out[static_cast<size_t>(i)] =
          (sum - 0.5 * ys[static_cast<size_t>(i - half)] -
           0.5 * ys[static_cast<size_t>(i + half)]) /
          static_cast<double>(w);
    } else {
      out[static_cast<size_t>(i)] = sum / static_cast<double>(nhi - nlo + 1);
    }
  }
}

namespace {

constexpr int kInnerIterations = 2;
constexpr int kRefinementPasses = 2;

// The spans follow the conventions in the STL literature: the seasonal
// smoother wants a long span (quasi-periodic seasonality), the trend span
// is the smallest odd integer >= 1.5*period / (1 - 1.5/seasonal_span).
int seasonal_span_for(int n_subseries) {
  int s = 10 * n_subseries + 1;
  return s | 1;
}

int trend_span_for(int period, int seasonal_span) {
  double v = 1.5 * period / (1.0 - 1.5 / static_cast<double>(seasonal_span));
  int t = static_cast<int>(std::ceil(v));
  return t | 1;
}

}  // namespace

void stl_decompose(std::span<const double> ys, int period, StlWorkspace& ws,
                   StlResult& r) {
  const auto n = ys.size();
  assert(period >= 2);
  assert(n >= static_cast<size_t>(2 * period));

  const int n_sub =
      static_cast<int>((n + static_cast<size_t>(period) - 1) / static_cast<size_t>(period));
  const int seasonal_span = seasonal_span_for(n_sub);
  const int trend_span = trend_span_for(period, seasonal_span);

  r.trend.assign(n, 0.0);
  r.seasonal.assign(n, 0.0);
  r.remainder.assign(n, 0.0);

  ws.detrended.resize(n);
  ws.cycle.resize(n);
  ws.lowpass.resize(n);
  ws.lowpass2.resize(n);
  ws.deseason.resize(n);

  for (int inner = 0; inner < kInnerIterations; ++inner) {
    // 1. Detrend.
    for (size_t i = 0; i < n; ++i) ws.detrended[i] = ys[i] - r.trend[i];

    // 2. Cycle-subseries smoothing: gather each phase into workspace
    // buffers, smooth, scatter back — no per-phase allocations once the
    // buffers hit their high-water marks.
    for (int phase = 0; phase < period; ++phase) {
      const size_t count =
          (n - static_cast<size_t>(phase) + static_cast<size_t>(period) - 1) /
          static_cast<size_t>(period);
      ws.sub.resize(count);
      ws.sub_smooth.resize(count);
      size_t k = 0;
      for (size_t i = static_cast<size_t>(phase); i < n;
           i += static_cast<size_t>(period)) {
        ws.sub[k++] = ws.detrended[i];
      }
      LoessConfig lc;
      lc.span_points = std::min<int>(seasonal_span, static_cast<int>(count));
      loess_unit_into(ws.sub, lc, ws.sub_smooth);
      k = 0;
      for (size_t i = static_cast<size_t>(phase); i < n;
           i += static_cast<size_t>(period)) {
        ws.cycle[i] = ws.sub_smooth[k++];
      }
    }

    // 3. Low-pass filter the preliminary seasonal and subtract, so the
    // seasonal carries no trend. Ping-pong between the two workspace
    // buffers.
    moving_average_into(ws.cycle, period, ws.lowpass);
    moving_average_into(ws.lowpass, period, ws.lowpass2);
    moving_average_into(ws.lowpass2, 3, ws.lowpass);
    LoessConfig lp_cfg;
    lp_cfg.span_points = trend_span;
    loess_unit_into(ws.lowpass, lp_cfg, ws.lowpass2);
    for (size_t i = 0; i < n; ++i) r.seasonal[i] = ws.cycle[i] - ws.lowpass2[i];

    // 4. Deseasonalize and update the trend.
    for (size_t i = 0; i < n; ++i) ws.deseason[i] = ys[i] - r.seasonal[i];
    LoessConfig tc;
    tc.span_points = std::min<int>(trend_span, static_cast<int>(n));
    loess_unit_into(ws.deseason, tc, r.trend);
  }

  for (size_t i = 0; i < n; ++i)
    r.remainder[i] = ys[i] - r.trend[i] - r.seasonal[i];
}

StlResult stl_decompose(std::span<const double> ys, int period) {
  StlWorkspace ws;
  StlResult r;
  stl_decompose(ys, period, ws, r);
  return r;
}

void mstl_decompose(std::span<const double> ys,
                    std::span<const int> all_periods, StlWorkspace& ws,
                    MstlResult& r) {
  const size_t n = ys.size();

  // Keep only periods the series can support, ascending.
  std::vector<int> periods;
  for (int p : all_periods)
    if (p >= 2 && n >= static_cast<size_t>(2 * p)) periods.push_back(p);
  std::sort(periods.begin(), periods.end());

  r.seasonals.resize(periods.size());
  for (auto& s : r.seasonals) s.assign(n, 0.0);
  r.trend.assign(n, 0.0);
  r.remainder.assign(n, 0.0);

  if (periods.empty()) {
    // Degenerate: no seasonality extractable; trend = LOESS of series.
    LoessConfig tc;
    tc.span_fraction = 0.5;
    loess_unit_into(ys, tc, r.trend);
    for (size_t i = 0; i < n; ++i) r.remainder[i] = ys[i] - r.trend[i];
    return;
  }

  // Iterative refinement (Bandara et al. §3): strip other components,
  // re-fit this period's seasonal via STL. `ws.partial` and the STL
  // scratch result are reused across every (pass, period) iteration.
  ws.partial.resize(n);
  for (int pass = 0; pass < kRefinementPasses; ++pass) {
    for (size_t k = 0; k < periods.size(); ++k) {
      for (size_t i = 0; i < n; ++i) {
        double v = ys[i];
        for (size_t j = 0; j < periods.size(); ++j)
          if (j != k) v -= r.seasonals[j][i];
        ws.partial[i] = v;
      }
      stl_decompose(ws.partial, periods[k], ws, ws.stl_scratch);
      std::swap(r.seasonals[k], ws.stl_scratch.seasonal);
      // The trend from the longest-period STL (last refined) is the final
      // trend; intermediate ones are absorbed.
      if (k + 1 == periods.size()) std::swap(r.trend, ws.stl_scratch.trend);
    }
  }

  for (size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (const auto& comp : r.seasonals) s += comp[i];
    r.remainder[i] = ys[i] - r.trend[i] - s;
  }
}

MstlResult mstl_decompose(std::span<const double> ys,
                          std::span<const int> periods) {
  StlWorkspace ws;
  MstlResult r;
  mstl_decompose(ys, periods, ws, r);
  return r;
}

}  // namespace nbv6::stats
