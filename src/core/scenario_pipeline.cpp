#include "core/scenario_pipeline.h"

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "engine/run_spec.h"

namespace nbv6 {

namespace engine {

ForestScheduler::Stats Pipeline::run(PassCache* cache, ThreadPool* pool) {
  unbind();
  ForestScheduler::Stats stats;
  // Stage i ran: count it and bind its output.
  auto ran = [&](std::size_t i, PipelineValue v) -> const PipelineValue& {
    ++executions_[i];
    ++stats.executed;
    return bound_[i] = std::move(v);
  };
  try {
    // The population is the one stage result worth caching: every what-if
    // variant of a base samples the same one.
    std::uint64_t key = 0;
    std::optional<std::vector<PipelineValue>> hit;
    if (cache != nullptr) {
      key = population_key(cfg_, *catalog_);
      hit = cache->find(key, kStages[0].name, 1);
    }
    if (hit) {
      bound_[0] = std::move((*hit)[0]);
      ++stats.cached;
    } else {
      ran(0, PipelineValue::wrap(sample_stage(cfg_, *catalog_)));
      if (cache != nullptr) cache->store(key, kStages[0].name, {bound_[0]});
    }

    // Bound values are immutable and may be shared; plan onto a copy.
    SampledFleet planned = bound_[0].get<SampledFleet>();
    apply_timeline(planned, cfg_.timeline, cfg_.seed, cfg_.days);
    const auto& fleet =
        ran(1, PipelineValue::wrap(std::move(planned))).get<SampledFleet>();

    const auto& result =
        ran(2, PipelineValue::wrap(
                   simulate_fleet(*catalog_, fleet, pool, cache)))
            .get<FleetResult>();

    ran(3, PipelineValue::wrap(
               core::fleet_stats_report(result, pool, core::kScenarioAlpha)));

    const core::PanelWindows w = core::panel_windows(cfg_.days);
    ran(4, PipelineValue::wrap(core::compare_windows(
               result, core::default_fleet_metrics(), w.pre, w.post,
               core::FleetGroup::all, pool, core::kScenarioAlpha)));
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

PassReadAudit audit_scenario_passes(const engine::FleetConfig& cfg,
                                    const traffic::ServiceCatalog& catalog) {
  PassReadAudit audit;
  {
    engine::ConfigReadTracker::Scope scope;
    (void)engine::population_key(cfg, catalog);
    audit.digest_reads = scope.reads();
  }
  {
    // Poolless by construction: every read lands on this thread, where the
    // scope is active.
    engine::ConfigReadTracker::Scope scope;
    (void)engine::sample_stage(cfg, catalog);
    audit.run_reads = scope.reads();
  }
  return audit;
}

engine::ConfigReadSet uncovered_config_reads(const PassReadAudit& audit) {
  return audit.run_reads & ~audit.digest_reads;
}

std::string describe_read_set(const engine::ConfigReadSet& reads) {
  std::string out;
  for (std::size_t i = 0; i < engine::kConfigFieldCount; ++i) {
    if (!reads.test(i)) continue;
    if (!out.empty()) out += ", ";
    out += to_string(static_cast<engine::ConfigField>(i));
  }
  return out;
}

}  // namespace core

}  // namespace nbv6
