#include "stats/loess.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace nbv6::stats {

// Unit-spaced LOESS with cached window weights (the MSTL inner loop).
// Once the sliding window reaches its steady interior state, every point
// sees the same window shape — the same offset inside the window and the
// same dmax — so the tricube weight vector and its three data-independent
// sums (sw, swx, swxx) are constants. They are computed once per distinct
// shape (one interior shape plus O(q) boundary shapes) and reused; each
// point then costs only the two data-dependent dot products (swy, swxy),
// run with four accumulator lanes each so the floating-point adds do not
// serialize on one latency chain. The lane fold reassociates the sums
// relative to the straight-line loop — legal here because no
// golden-pinned output flows through LOESS (the decompose/client layers
// consume it under tolerance tests).
void loess_unit_into(std::span<const double> ys, const LoessConfig& cfg,
                     std::span<double> out) {
  const size_t n = ys.size();
  assert(out.size() == n);
  if (n == 0) return;
  if (n == 1) {
    out[0] = ys[0];
    return;
  }

  size_t q = cfg.span_points > 0
                 ? static_cast<size_t>(cfg.span_points)
                 : static_cast<size_t>(
                       std::max(2.0, cfg.span_fraction * static_cast<double>(n)));
  q = std::clamp<size_t>(q, 2, n);

  // Cached window shape: weights, w*dx, and the data-independent sums,
  // keyed by (offset in window, dmax).
  std::vector<double> wc, wxc;
  double c_sw = 0, c_swx = 0, c_swxx = 0;
  size_t c_off = static_cast<size_t>(-1);
  double c_dmax = -1.0;

  auto x_at = [](size_t i) { return static_cast<double>(i); };
  // x is sorted, so the q nearest neighbours of x_at(i) form a contiguous
  // window; slide it with two pointers.
  size_t lo = 0;
  for (size_t i = 0; i < n; ++i) {
    const double xi = x_at(i);
    // Advance window while the next point right is closer than the
    // farthest point left.
    while (lo + q < n && x_at(lo + q) - xi < xi - x_at(lo)) {
      ++lo;
    }
    // Ensure i is inside [lo, lo+q).
    if (i >= lo + q) lo = i - q + 1;
    if (i < lo) lo = i;
    size_t hi = lo + q;  // exclusive

    double dmax = std::max(xi - x_at(lo), x_at(hi - 1) - xi);
    if (dmax <= 0.0) dmax = 1.0;
    const double inv_dmax = 1.0 / dmax;

    // Weighted linear regression over the window.
    const size_t off = i - lo;  // dx of element k is exactly k - off
    if (off != c_off || dmax != c_dmax) {
      wc.assign(q, 0.0);
      wxc.assign(q, 0.0);
      c_sw = c_swx = c_swxx = 0.0;
      for (size_t k = 0; k < q; ++k) {
        const double dx =
            static_cast<double>(k) - static_cast<double>(off);
        const double u = std::abs(dx) * inv_dmax;
        double t = 1.0 - u * u * u;
        t = std::max(t, 0.0);
        const double w = t * t * t;  // tricube, zero outside the window
        wc[k] = w;
        wxc[k] = w * dx;
        c_sw += w;
        c_swx += w * dx;
        c_swxx += w * dx * dx;
      }
      c_off = off;
      c_dmax = dmax;
    }
    double y0 = 0, y1 = 0, y2 = 0, y3 = 0;
    double xy0 = 0, xy1 = 0, xy2 = 0, xy3 = 0;
    const double* yw = ys.data() + lo;
    size_t k = 0;
    for (; k + 4 <= q; k += 4) {
      y0 += wc[k] * yw[k];
      y1 += wc[k + 1] * yw[k + 1];
      y2 += wc[k + 2] * yw[k + 2];
      y3 += wc[k + 3] * yw[k + 3];
      xy0 += wxc[k] * yw[k];
      xy1 += wxc[k + 1] * yw[k + 1];
      xy2 += wxc[k + 2] * yw[k + 2];
      xy3 += wxc[k + 3] * yw[k + 3];
    }
    for (; k < q; ++k) {
      y0 += wc[k] * yw[k];
      xy0 += wxc[k] * yw[k];
    }
    const double sw = c_sw;
    const double swx = c_swx;
    const double swxx = c_swxx;
    const double swy = (y0 + y2) + (y1 + y3);
    const double swxy = (xy0 + xy2) + (xy1 + xy3);
    if (sw <= 0.0) {
      out[i] = ys[i];
      continue;
    }
    double denom = sw * swxx - swx * swx;
    if (std::abs(denom) < 1e-12 * sw * sw || swxx == 0.0) {
      out[i] = swy / sw;  // degenerate: all x equal, fall back to mean
    } else {
      // Fit y = a + b*dx around dx = 0; value at the target is `a`.
      double b = (sw * swxy - swx * swy) / denom;
      double a = (swy - b * swx) / sw;
      out[i] = a;
    }
  }
}

std::vector<double> loess(std::span<const double> ys, const LoessConfig& cfg) {
  std::vector<double> out(ys.size(), 0.0);
  loess_unit_into(ys, cfg, out);
  return out;
}

}  // namespace nbv6::stats
