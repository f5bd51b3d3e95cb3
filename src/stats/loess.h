// LOESS — locally weighted regression smoothing (Cleveland 1979).
//
// The smoothing primitive inside STL/MSTL (§3.3 of the paper decomposes
// daily IPv6 fractions with MSTL, whose inner loops are LOESS fits).
// Local linear fits with tricube weights over a unit-spaced series
// (x = 0..n-1).
//
// Two API layers: the vector-returning convenience below, and the
// allocation-free `_into` variant that writes into a caller-provided
// output span. STL/MSTL call the `_into` form with workspace buffers so the
// decomposition inner loops perform no heap allocation.
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

/// Smooth `ys` observed at x = 0..n-1, evaluated back at every x, into
/// `out` (out.size() == ys.size(); `out` must not alias `ys`).
void loess_unit_into(std::span<const double> ys, const LoessConfig& cfg,
                     std::span<double> out);

/// Convenience wrapper returning a fresh vector.
std::vector<double> loess(std::span<const double> ys, const LoessConfig& cfg);

}  // namespace nbv6::stats
