// The scenario stage functions: sample_stage, then apply_timeline
// (engine/timeline.h), then simulate_fleet or stream_fleet. Each is a pure
// function of its arguments; none depends on the pool's lane count.
//
// These are the one implementation of each stage. The pass-graph pipeline
// (engine/pipeline.h + core/scenario_pipeline.h) registers them as passes,
// which is how a scenario runs end to end and how a sweep shares the
// sampled base population across variants; Firehose::run chains them for
// the streaming path. Callers that want one stage call it directly with a
// pool they own.
#pragma once

#include <cstdint>
#include <span>

#include "engine/firehose.h"
#include "engine/fleet.h"
#include "engine/timeline.h"

namespace nbv6::engine {

/// Deterministically sample the residence population described by `cfg`,
/// with its stratum labels. Residence i depends only on (seed, i), so
/// growing the population keeps existing households stable. The catalog
/// supplies service names for the per-household mix tilts.
SampledFleet sample_stage(const FleetConfig& cfg,
                          const traffic::ServiceCatalog& catalog);

/// Simulate every residence into its own shard and reduce in residence-
/// index order. `pool` may be null (sequential); results are bit-identical
/// for any lane count. The result carries no stratum labels.
FleetResult simulate_fleet(const traffic::ServiceCatalog& catalog,
                           std::span<const traffic::ResidenceConfig> configs,
                           ThreadPool* pool);

/// simulate_fleet(fleet.configs) carrying the stratum labels into the
/// result. Throws std::invalid_argument on traits/configs size mismatch.
FleetResult simulate_fleet(const traffic::ServiceCatalog& catalog,
                           const SampledFleet& fleet, ThreadPool* pool);

/// Streaming outcome of stream_fleet.
struct StreamStats {
  std::uint64_t flows = 0;  ///< records handed to the sink
  traffic::SimulationStats totals;
};

/// Drive the fleet day-by-day, emitting every generated flow to `sink` in
/// the canonical (day, tick, residence, generation) order on the calling
/// thread — the streaming stage behind Firehose::run. `days` and `arrival`
/// come from the scenario config (every sampled ResidenceConfig carries
/// copies of both).
StreamStats stream_fleet(const traffic::ServiceCatalog& catalog,
                         const SampledFleet& fleet, int days,
                         const traffic::ArrivalConfig& arrival,
                         ThreadPool* pool, const Firehose::Sink& sink);

}  // namespace nbv6::engine
