// STL — Seasonal-Trend decomposition using LOESS (Cleveland et al. 1990),
// and MSTL — its multi-seasonal extension (Bandara, Hyndman & Bergmeir
// 2021), which the paper applies to daily/weekly structure in residential
// IPv6 fractions (§3.3, Figs. 2, 13-15).
//
// STL here follows the classic structure: inner iterations alternate
// (1) cycle-subseries LOESS smoothing of the detrended series to extract
// the seasonal, (2) low-pass filtering (two moving averages of length
// `period`, an MA(3), and a LOESS pass) to de-trend the seasonal, and
// (3) LOESS smoothing of the deseasonalized series to update the trend.
// Two inner iterations run; the LOESS spans derive from the period and the
// series length (no robustness loop: every point weighs one).
//
// MSTL iteratively refines one seasonal component per period: on each
// refinement pass (two of them), each period's seasonal is re-estimated by
// STL applied to the series minus all other seasonal components.
//
// Allocation discipline: the workspace-taking overloads perform no heap
// allocation in the inner iterations — every detrend/gather/scatter/
// low-pass/partial-sum buffer lives in the StlWorkspace and is reused
// across iterations, refinement passes, and successive decompositions.
// A FlowMonitor decomposing thousands of residence series can hold one
// workspace and pay the allocation cost once.
#pragma once

#include <span>
#include <vector>

namespace nbv6::stats {

struct StlResult {
  std::vector<double> trend;
  std::vector<double> seasonal;
  std::vector<double> remainder;
};

/// Reusable scratch space for stl_decompose / mstl_decompose. Buffers grow
/// to the high-water mark of the series they have processed and are then
/// reused allocation-free. A workspace may be shared by any number of
/// sequential decompositions, but not concurrently.
struct StlWorkspace {
  std::vector<double> detrended;   ///< ys - trend
  std::vector<double> cycle;       ///< cycle-subseries seasonal estimate
  std::vector<double> lowpass;     ///< low-pass ping buffer
  std::vector<double> lowpass2;    ///< low-pass pong buffer
  std::vector<double> deseason;    ///< ys - seasonal
  std::vector<double> sub;         ///< one phase's gathered cycle-subseries
  std::vector<double> sub_smooth;  ///< its smoothed cycle-subseries
  std::vector<double> partial;     ///< MSTL: series minus other seasonals
  StlResult stl_scratch;           ///< MSTL: per-period STL refinement target
};

/// Decompose ys into trend + seasonal + remainder. Requires
/// ys.size() >= 2 * period and period >= 2. `out` vectors are resized as
/// needed (reusing capacity when called repeatedly with the same shape).
void stl_decompose(std::span<const double> ys, int period, StlWorkspace& ws,
                   StlResult& out);

/// Convenience overload owning a transient workspace.
StlResult stl_decompose(std::span<const double> ys, int period);

struct MstlResult {
  std::vector<double> trend;
  /// One seasonal component per kept period, ascending.
  std::vector<std::vector<double>> seasonals;
  std::vector<double> remainder;
};

/// Multi-seasonal decomposition over `periods` (e.g. {24, 168} for hourly
/// data; sorted ascending internally). Periods whose 2×period exceeds the
/// series length are dropped (matching the statsmodels MSTL behaviour).
void mstl_decompose(std::span<const double> ys, std::span<const int> periods,
                    StlWorkspace& ws, MstlResult& out);

/// STL's low-pass moving average (exposed for tests): centered MA of
/// window `w` into `out` (no aliasing), edges truncated to the available
/// window. Even `w` follows the centered 2×MA convention — half weight on
/// the two endpoints — so that an MA at `w == period` cancels a
/// period-periodic signal exactly.
void moving_average_into(std::span<const double> ys, int w,
                         std::span<double> out);

/// Convenience overload owning a transient workspace.
MstlResult mstl_decompose(std::span<const double> ys,
                          std::span<const int> periods);

}  // namespace nbv6::stats
