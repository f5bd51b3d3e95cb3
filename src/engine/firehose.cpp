#include "engine/firehose.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/run_spec.h"

namespace nbv6::engine {

Firehose::Firehose(const traffic::ServiceCatalog& catalog, int threads)
    : catalog_(&catalog) {
  const auto lanes = resolve_lanes(threads);
  if (!lanes)
    throw std::invalid_argument("Firehose: " + std::to_string(threads) +
                                " lanes, expected 0.." +
                                std::to_string(kMaxLanes));
  lanes_ = *lanes;
  if (lanes_ > 1) pool_ = std::make_unique<ThreadPool>(lanes_ - 1);
}

Firehose::Result Firehose::run(const FleetConfig& cfg, const Sink& sink) {
  SampledFleet fleet = sample_stage(cfg, *catalog_);
  apply_timeline(fleet, cfg.timeline, cfg.seed, cfg.days);

  const size_t n = fleet.configs.size();
  std::vector<traffic::ResidenceSimulator> sims;
  sims.reserve(n);
  for (const auto& rc : fleet.configs) sims.emplace_back(*catalog_, rc);
  std::vector<FlowEventBuffer> buffers(n);
  for (auto& sim : sims) sim.begin_run();

  const int days = cfg.days;
  const int slots_per_day = 24 * cfg.arrival->slots_per_hour();

  Result out;
  out.lanes = lanes_;
  std::vector<size_t> cursor(n);

  for (int day = 0; day < days; ++day) {
    // Lanes fill per-residence buffers independently (no shared state);
    // determinism comes from the merge below, not the fill order.
    auto run_one = [&](std::size_t i) { sims[i].run_day(buffers[i], day); };
    if (pool_ != nullptr) {
      pool_->parallel_for(n, run_one);
    } else {
      for (std::size_t i = 0; i < n; ++i) run_one(i);
    }

    // Canonical merge: tick-major, residence index, generation order.
    // Each buffer's records are already tick-sorted (ticks are simulated
    // in order), so this is a linear cursor sweep, not a sort.
    std::fill(cursor.begin(), cursor.end(), size_t{0});
    for (int tick = 0; tick < slots_per_day; ++tick) {
      for (size_t i = 0; i < n; ++i) {
        auto& ev = buffers[i].events();
        size_t& c = cursor[i];
        while (c < ev.size() && ev[c].tick <= tick) {
          ev[c].residence = static_cast<std::uint32_t>(i);
          sink(ev[c]);
          ++out.flows;
          ++c;
        }
      }
    }
    // Defensive drain: nothing should remain past the last slot, but a
    // record must never be dropped silently.
    for (size_t i = 0; i < n; ++i) {
      auto& ev = buffers[i].events();
      for (size_t& c = cursor[i]; c < ev.size(); ++c) {
        ev[c].residence = static_cast<std::uint32_t>(i);
        sink(ev[c]);
        ++out.flows;
      }
    }
    for (auto& b : buffers) b.clear();
  }

  const auto horizon =
      static_cast<flowmon::Timestamp>(days) * flowmon::kSecondsPerDay;
  for (size_t i = 0; i < n; ++i) {
    buffers[i].flush(horizon);
    out.totals += sims[i].stats();
  }
  return out;
}

}  // namespace nbv6::engine
