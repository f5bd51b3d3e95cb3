// LOESS — locally weighted regression smoothing (Cleveland 1979).
//
// The smoothing primitive inside STL/MSTL (§3.3 of the paper decomposes
// daily IPv6 fractions with MSTL, whose inner loops are LOESS fits).
// Local linear fits with tricube weights; an optional robustness weight
// vector supports STL's outer iterations.
//
// Two API layers: the vector-returning conveniences below, and
// allocation-free `_into` variants that write into caller-provided output
// spans. STL/MSTL call the `_into` forms with workspace buffers so the
// decomposition inner loops perform no heap allocation; the unit-spaced
// variant additionally never materializes an x array.
#pragma once

#include <span>
#include <vector>

namespace nbv6::stats {

struct LoessConfig {
  /// Number of neighbours in each local fit, as a fraction of n when
  /// `span_points` is 0.
  double span_fraction = 0.3;
  /// Absolute neighbourhood size; overrides span_fraction when > 0.
  int span_points = 0;
};

/// Smooth `ys` observed at `xs` (strictly increasing), evaluated back at
/// every xs[i], into `out` (out.size() == ys.size(); `out` must not alias
/// `ys`). `robustness` is either empty or per-point multiplicative weights
/// in [0,1] (STL's outer-loop bisquare weights).
void loess_into(std::span<const double> xs, std::span<const double> ys,
                const LoessConfig& cfg, std::span<const double> robustness,
                std::span<double> out);

/// Unit-spaced variant (x = 0..n-1): no x array needed.
void loess_unit_into(std::span<const double> ys, const LoessConfig& cfg,
                     std::span<const double> robustness,
                     std::span<double> out);

/// Convenience wrappers returning a fresh vector.
std::vector<double> loess(std::span<const double> xs,
                          std::span<const double> ys, const LoessConfig& cfg,
                          std::span<const double> robustness = {});

/// Convenience for unit-spaced series (x = 0..n-1).
std::vector<double> loess(std::span<const double> ys, const LoessConfig& cfg,
                          std::span<const double> robustness = {});

}  // namespace nbv6::stats
