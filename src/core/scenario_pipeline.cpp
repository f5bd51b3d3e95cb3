#include "core/scenario_pipeline.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "engine/run_spec.h"

namespace nbv6 {

namespace engine {

ForestScheduler::Stats Pipeline::run(PassCache* cache, ThreadPool* pool) {
  unbind();
  ForestScheduler::Stats stats;
  // Stage i ran: count it and bind its output to `slot`.
  auto ran = [&]<typename T>(std::size_t i, std::shared_ptr<const T>& slot,
                             T value) -> const T& {
    ++executions_[i];
    ++stats.executed;
    slot = std::make_shared<const T>(std::move(value));
    return *slot;
  };
  try {
    // The population is the one stage result worth caching: every what-if
    // variant of a base samples the same one.
    const std::uint64_t key = cache ? population_key(cfg_, *catalog_) : 0;
    if (cache != nullptr) bound_.population = cache->population(key);
    if (bound_.population != nullptr) {
      ++stats.cached;
    } else {
      ran(0, bound_.population, sample_stage(cfg_, *catalog_));
      if (cache != nullptr) cache->store(key, bound_.population);
    }

    // Bound values are immutable and may be shared; plan onto a copy.
    SampledFleet planned = *bound_.population;
    apply_timeline(planned, cfg_.timeline, cfg_.seed, cfg_.days);
    const auto& fleet = ran(1, bound_.planned, std::move(planned));

    // Nothing downstream reads a residence's hourly or destination tallies.
    const auto& result =
        ran(2, bound_.result,
            simulate_fleet(*catalog_, fleet, pool, cache, ShardTallies::lean));

    ran(3, bound_.report,
        core::fleet_stats_report(result, pool, core::kScenarioAlpha));

    const core::PanelWindows w = core::panel_windows(cfg_.days);
    ran(4, bound_.panel,
        core::compare_windows(result, core::default_fleet_metrics(), w.pre,
                              w.post, core::FleetGroup::all, pool,
                              core::kScenarioAlpha));
  } catch (...) {
    // No partial state: a failed run serves no stale/fresh mix.
    unbind();
    throw;
  }
  return stats;
}

}  // namespace engine

namespace core {

engine::Pipeline make_scenario_pipeline(const engine::FleetConfig& cfg,
                                        const traffic::ServiceCatalog& catalog) {
  return engine::Pipeline(cfg, catalog);
}

std::vector<std::string> scenario_transient_resources() {
  return {"population", "planned_fleet"};
}

}  // namespace core

}  // namespace nbv6
