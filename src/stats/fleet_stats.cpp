#include "stats/fleet_stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "stats/wilcoxon.h"

namespace nbv6::stats {

// ------------------------------------------------------- StreamingCdf

StreamingCdf::StreamingCdf(double lo, double hi, int bins)
    : lo_(lo),
      width_((hi - lo) / std::max(bins, 1)),
      bins_(static_cast<size_t>(std::max(bins, 1)), 0),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  // A hard error, not an assert: Release builds (the default) would
  // otherwise bin into a non-positive width and return silent garbage.
  if (!(hi > lo))
    throw std::invalid_argument("StreamingCdf: requires hi > lo");
}

void StreamingCdf::add(double x) {
  // Undefined metric values (NaN sentinel) and infinities (divide-by-zero
  // artifacts) carry no information — and one inf would poison the Welford
  // moments for good — so only finite values count.
  if (!std::isfinite(x)) return;
  // Clamp in floating point BEFORE the integer cast: casting an
  // out-of-long-range double (huge values, +-inf) is UB.
  double pos = std::clamp(std::floor((x - lo_) / width_), 0.0,
                          static_cast<double>(bins_.size() - 1));
  ++bins_[static_cast<size_t>(pos)];
  ++count_;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void StreamingCdf::add(std::span<const double> xs) {
  for (double x : xs) add(x);
}

bool StreamingCdf::compatible_with(const StreamingCdf& other) const {
  return other.lo_ == lo_ && other.width_ == width_ &&
         other.bins_.size() == bins_.size();
}

void StreamingCdf::merge(const StreamingCdf& other) {
  // Mismatched layouts would add counts across incompatible bin widths —
  // silently wrong in Release builds — so this is a hard error too. Thrown
  // before any mutation: a failed merge leaves *this exactly as it was.
  if (!compatible_with(other))
    throw std::invalid_argument(
        "StreamingCdf::merge: accumulators must share (lo, hi, bins)");
  if (other.count_ == 0) return;
  for (size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  // Chan et al.'s pairwise moment combination.
  double na = static_cast<double>(count_);
  double nb = static_cast<double>(other.count_);
  double delta = other.mean_ - mean_;
  count_ += other.count_;
  double nn = static_cast<double>(count_);
  mean_ += delta * nb / nn;
  m2_ += other.m2_ + delta * delta * na * nb / nn;
  // Postcondition: the bin histogram and the moment accumulator must agree
  // on the sample count, or quantile()/cdf() interpolation drifts from
  // mean()/stddev() — the invariant every shard reduction relies on.
  assert(std::accumulate(bins_.begin(), bins_.end(), std::uint64_t{0}) ==
         count_);
}

double StreamingCdf::mean() const { return count_ == 0 ? 0.0 : mean_; }

double StreamingCdf::stddev() const {
  return count_ < 2 ? 0.0 : std::sqrt(m2_ / static_cast<double>(count_ - 1));
}

double StreamingCdf::min() const { return count_ == 0 ? 0.0 : min_; }
double StreamingCdf::max() const { return count_ == 0 ? 0.0 : max_; }

double StreamingCdf::cdf(double x) const {
  if (count_ == 0) return 0.0;
  if (x < min_) return 0.0;
  if (x >= max_) return 1.0;
  double pos = (x - lo_) / width_;
  // Clamp in floating point before the cast (out-of-range casts are UB);
  // values clamped into the edge bins at add() time clamp the same way.
  double bd = std::clamp(std::floor(pos), 0.0,
                         static_cast<double>(bins_.size() - 1));
  auto b = static_cast<size_t>(bd);
  std::uint64_t below = 0;
  for (size_t i = 0; i < b; ++i) below += bins_[i];
  double frac = std::clamp(pos - bd, 0.0, 1.0);
  double in_bin = frac * static_cast<double>(bins_[b]);
  return (static_cast<double>(below) + in_bin) / static_cast<double>(count_);
}

double StreamingCdf::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q == 0.0) return min_;
  if (q == 1.0) return max_;
  double target = q * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (size_t b = 0; b < bins_.size(); ++b) {
    std::uint64_t c = bins_[b];
    if (static_cast<double>(cum + c) >= target && c > 0) {
      double frac = (target - static_cast<double>(cum)) / static_cast<double>(c);
      double v = lo_ + width_ * (static_cast<double>(b) + frac);
      return std::clamp(v, min_, max_);
    }
    cum += c;
  }
  return max_;
}

Summary StreamingCdf::summary() const {
  Summary s;
  s.count = count_;
  s.mean = mean();
  s.stddev = stddev();
  s.min = min();
  s.max = max();
  s.p25 = quantile(0.25);
  s.median = quantile(0.5);
  s.p75 = quantile(0.75);
  return s;
}

// ------------------------------------------------------- panel adjust

void holm_adjust(std::span<PanelRow> rows, double alpha) {
  std::vector<double> ps;
  ps.reserve(rows.size());
  for (const auto& r : rows) ps.push_back(r.p_raw);
  auto holm = holm_bonferroni(ps, alpha);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].p_holm = holm.adjusted_p[i];
    rows[i].significant = holm.reject[i];
  }
}

}  // namespace nbv6::stats
