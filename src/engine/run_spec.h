// The scenario stage functions: sample_stage, then apply_timeline
// (engine/timeline.h), then simulate_fleet. Each is a pure function of its
// arguments; none depends on the pool's lane count.
//
// These are the one implementation of each stage. The scenario chain
// (engine::Pipeline, run in core/scenario_pipeline.cpp) calls them in order,
// which is how a scenario runs end to end. Its two cache keys live here too:
// population_key for the sampled population, shared across what-if variants
// that differ only in their timeline, and shard_key for one residence's
// simulation. Firehose::run (engine/firehose.h) samples and plans with the
// first two stages, then streams the fleet day by day instead of simulating
// it. Callers that want one stage call it directly with a pool they own.
#pragma once

#include <cstdint>
#include <span>

#include "engine/fleet.h"
#include "engine/thread_pool.h"
#include "engine/timeline.h"

namespace nbv6::engine {

class PassCache;  // engine/pipeline.h

/// Deterministically sample the residence population described by `cfg`,
/// with its stratum labels. Residence i depends only on (seed, i), so
/// growing the population keeps existing households stable. The catalog
/// supplies service names for the per-household mix tilts.
SampledFleet sample_stage(const FleetConfig& cfg,
                          const traffic::ServiceCatalog& catalog);

/// Cache key of the sampled population (PassCache::population). It folds a
/// "population" tag, everything sample_stage reads (residences, days, seed,
/// the six population fractions, the activity-scale range, arrival mode and
/// ticks) and catalog.content_digest(). The timeline is left out: it cannot
/// change what is sampled. digest_audit_test mutates each FleetConfig
/// field and checks that every change to the sample changes the key.
std::uint64_t population_key(const FleetConfig& cfg,
                             const traffic::ServiceCatalog& catalog);

/// Cache key of one residence's simulation (PassCache::shard). A shard is a
/// pure function of the catalog, its ResidenceConfig and the DayPlans it is
/// handed, so the key folds a "simulate.shard" tag, catalog.content_digest(),
/// every ResidenceConfig field except day_plan_fn (name, days, start
/// weekday, the six scalars, each override's name and weight, the away
/// ranges, arrival mode and ticks, seed), and every field of the evaluated
/// DayPlan for days 0..days-1 — taken from day_plan_fn, or kStaticDayPlan
/// without one, exactly as the simulator takes it. The closure itself never
/// enters the key: two providers that return equal plans share a key, and
/// so do a null provider and one that returns kStaticDayPlan.
std::uint64_t shard_key(const traffic::ServiceCatalog& catalog,
                        const traffic::ResidenceConfig& config);

/// Where residences' hourly and destination tallies go: `full` keeps them in
/// each residence's monitor (paper's per-home figures read them); `lean`
/// sends them to one accumulator per lane, folded into FleetResult::fleet,
/// so residences keep totals, daily series and NEW/DESTROY counts only.
enum class ShardTallies { full, lean };

/// Simulate every residence into its own shard and reduce in residence-
/// index order. `pool` may be null (sequential); results are bit-identical
/// for any lane count. The result carries no stratum labels. One task per
/// lane (pool size + 1) takes residences off a ticket and runs each
/// straight into its monitor through a flowmon::MonitorSink.
///
/// With a `cache`, each residence's Shard is looked up under its shard_key:
/// a hit copies the cached stats and monitor into the slot, a miss
/// simulates and stores its shard. The
/// config always comes from `configs`, and the fold is the same, so a
/// cached run is byte-identical to an uncached one. This is how what-if
/// variants that change a few homes re-simulate only those homes. Without a
/// cache no key is computed and nothing is looked up or stored. A cache
/// forces ShardTallies::full: a later hit needs the stored shard's tallies.
FleetResult simulate_fleet(const traffic::ServiceCatalog& catalog,
                           std::span<const traffic::ResidenceConfig> configs,
                           ThreadPool* pool, PassCache* cache = nullptr,
                           ShardTallies tallies = ShardTallies::full);

/// simulate_fleet(fleet.configs) carrying the stratum labels into the
/// result. Throws std::invalid_argument on traits/configs size mismatch.
FleetResult simulate_fleet(const traffic::ServiceCatalog& catalog,
                           const SampledFleet& fleet, ThreadPool* pool,
                           PassCache* cache = nullptr,
                           ShardTallies tallies = ShardTallies::full);

}  // namespace nbv6::engine
