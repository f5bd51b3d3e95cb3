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

// Default spans follow the conventions in the STL literature: the seasonal
// smoother wants a long span (quasi-periodic seasonality), the trend span
// is the smallest odd integer >= 1.5*period / (1 - 1.5/seasonal_span).
int default_seasonal_span(int n_subseries) {
  int s = 10 * n_subseries + 1;
  return s | 1;
}

int default_trend_span(int period, int seasonal_span) {
  double v = 1.5 * period / (1.0 - 1.5 / static_cast<double>(seasonal_span));
  int t = static_cast<int>(std::ceil(v));
  return t | 1;
}

}  // namespace

void stl_decompose(std::span<const double> ys, const StlConfig& cfg,
                   StlWorkspace& ws, StlResult& r) {
  const auto n = ys.size();
  const int period = cfg.period;
  assert(period >= 2);
  assert(n >= static_cast<size_t>(2 * period));

  const int n_sub =
      static_cast<int>((n + static_cast<size_t>(period) - 1) / static_cast<size_t>(period));
  const int seasonal_span =
      cfg.seasonal_span > 0 ? cfg.seasonal_span : default_seasonal_span(n_sub);
  const int trend_span = cfg.trend_span > 0
                             ? cfg.trend_span
                             : default_trend_span(period, seasonal_span);

  r.trend.assign(n, 0.0);
  r.seasonal.assign(n, 0.0);
  r.remainder.assign(n, 0.0);

  ws.robustness.clear();  // empty = all ones
  ws.detrended.resize(n);
  ws.cycle.resize(n);
  ws.lowpass.resize(n);
  ws.lowpass2.resize(n);
  ws.deseason.resize(n);

  for (int outer = 0; outer <= cfg.outer_iterations; ++outer) {
    for (int inner = 0; inner < cfg.inner_iterations; ++inner) {
      // 1. Detrend.
      for (size_t i = 0; i < n; ++i) ws.detrended[i] = ys[i] - r.trend[i];

      // 2. Cycle-subseries smoothing: gather each phase into workspace
      // buffers, smooth, scatter back — no per-phase allocations once the
      // buffers hit their high-water marks.
      const bool robust = !ws.robustness.empty();
      for (int phase = 0; phase < period; ++phase) {
        const size_t count =
            (n - static_cast<size_t>(phase) + static_cast<size_t>(period) - 1) /
            static_cast<size_t>(period);
        ws.sub.resize(count);
        ws.sub_smooth.resize(count);
        ws.sub_rob.resize(robust ? count : 0);
        size_t k = 0;
        for (size_t i = static_cast<size_t>(phase); i < n;
             i += static_cast<size_t>(period)) {
          ws.sub[k] = ws.detrended[i];
          if (robust) ws.sub_rob[k] = ws.robustness[i];
          ++k;
        }
        LoessConfig lc;
        lc.span_points = std::min<int>(seasonal_span, static_cast<int>(count));
        loess_unit_into(ws.sub, lc, ws.sub_rob, ws.sub_smooth);
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
      loess_unit_into(ws.lowpass, lp_cfg, {}, ws.lowpass2);
      for (size_t i = 0; i < n; ++i) r.seasonal[i] = ws.cycle[i] - ws.lowpass2[i];

      // 4. Deseasonalize and update the trend.
      for (size_t i = 0; i < n; ++i) ws.deseason[i] = ys[i] - r.seasonal[i];
      LoessConfig tc;
      tc.span_points = std::min<int>(trend_span, static_cast<int>(n));
      loess_unit_into(ws.deseason, tc, ws.robustness, r.trend);
    }

    for (size_t i = 0; i < n; ++i)
      r.remainder[i] = ys[i] - r.trend[i] - r.seasonal[i];

    if (outer < cfg.outer_iterations) {
      // Bisquare robustness weights from remainder magnitudes. The median
      // runs in-place on the workspace copy (nth_element), not on a fresh
      // vector.
      ws.abs_rem.resize(n);
      for (size_t i = 0; i < n; ++i) ws.abs_rem[i] = std::abs(r.remainder[i]);
      const auto mid = ws.abs_rem.begin() + static_cast<std::ptrdiff_t>(n / 2);
      std::nth_element(ws.abs_rem.begin(), mid, ws.abs_rem.end());
      double med = *mid;
      if (n % 2 == 0) {
        // Lower middle is the max of the first half after partitioning.
        med = (med + *std::max_element(ws.abs_rem.begin(), mid)) / 2.0;
      }
      double h = 6.0 * med;
      ws.robustness.assign(n, 1.0);
      if (h > 0) {
        for (size_t i = 0; i < n; ++i) {
          double u = ws.abs_rem[i] / h;
          ws.robustness[i] = u >= 1.0 ? 0.0 : (1 - u * u) * (1 - u * u);
        }
      }
    }
  }
}

StlResult stl_decompose(std::span<const double> ys, const StlConfig& cfg) {
  StlWorkspace ws;
  StlResult r;
  stl_decompose(ys, cfg, ws, r);
  return r;
}

void mstl_decompose(std::span<const double> ys, const MstlConfig& cfg,
                    StlWorkspace& ws, MstlResult& r) {
  const size_t n = ys.size();

  // Keep only periods the series can support, ascending.
  std::vector<int> periods;
  for (int p : cfg.periods)
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
    loess_unit_into(ys, tc, {}, r.trend);
    for (size_t i = 0; i < n; ++i) r.remainder[i] = ys[i] - r.trend[i];
    return;
  }

  // Iterative refinement (Bandara et al. §3): strip other components,
  // re-fit this period's seasonal via STL. `ws.partial` and the STL
  // scratch result are reused across every (pass, period) iteration.
  ws.partial.resize(n);
  for (int pass = 0; pass < std::max(1, cfg.refinement_passes); ++pass) {
    for (size_t k = 0; k < periods.size(); ++k) {
      for (size_t i = 0; i < n; ++i) {
        double v = ys[i];
        for (size_t j = 0; j < periods.size(); ++j)
          if (j != k) v -= r.seasonals[j][i];
        ws.partial[i] = v;
      }
      StlConfig sc;
      sc.period = periods[k];
      sc.inner_iterations = cfg.inner_iterations;
      sc.outer_iterations = cfg.outer_iterations;
      stl_decompose(ws.partial, sc, ws, ws.stl_scratch);
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

MstlResult mstl_decompose(std::span<const double> ys, const MstlConfig& cfg) {
  StlWorkspace ws;
  MstlResult r;
  mstl_decompose(ys, cfg, ws, r);
  return r;
}

}  // namespace nbv6::stats
