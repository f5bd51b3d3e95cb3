#include "stats/rng.h"

#include <algorithm>
#include <cassert>

namespace nbv6::stats {

DiscreteSampler::DiscreteSampler(std::span<const double> weights) {
  assert(!weights.empty());
  cumulative_.reserve(weights.size());
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
    cumulative_.push_back(total);
  }
  assert(total > 0.0);
  for (double& c : cumulative_) c /= total;
  cumulative_.back() = 1.0;  // guard against rounding at the top
}

size_t DiscreteSampler::sample(Rng& rng) const {
  double u = rng.uniform();
  auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  if (it == cumulative_.end()) --it;
  return static_cast<size_t>(it - cumulative_.begin());
}

}  // namespace nbv6::stats
