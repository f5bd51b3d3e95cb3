// The scenario chain and the cache its runs share.
//
// A scenario runs as five stages, always in this order, on the calling
// thread (a stage uses the run's pool for lanes inside itself):
//
//   sample        ->  "population"     (engine::SampledFleet)
//   timeline      ->  "planned_fleet"  (engine::SampledFleet)
//   simulate      ->  "fleet_result"   (engine::FleetResult)
//   report        ->  "stats_report"   (core::FleetStatsReport)
//   window_panel  ->  "window_panel"   (core::GroupComparison)
//
// Pipeline is that chain for one FleetConfig, holding each output as a
// typed member. core::make_scenario_pipeline builds one; Pipeline::run is
// defined in core/scenario_pipeline.cpp, the one file that knows the stage
// functions. This header only forward-declares the two core/ analysis
// types.
//
// A PassCache shared across runs holds two kinds of entry, one map each:
// the sampled population under engine::population_key, so variants that
// differ only in their timeline sample their base once; and each
// residence's simulation (a Shard) under engine::shard_key, so a variant
// re-simulates only the homes its timeline re-plans. Timeline, report and
// window panel always run. Keys exclude lane count: every stage is
// bit-identical for any lane count, so a cached result is valid across
// thread configurations. A what-if forest (ForestScheduler::run) is a loop
// of Pipeline::run over one cache.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/thread_annotations.h"
#include "engine/fleet.h"
#include "engine/thread_pool.h"
#include "traffic/service_catalog.h"

namespace nbv6::core {
struct FleetStatsReport;  // core/fleet_analysis.h
struct GroupComparison;   // core/fleet_analysis.h
}  // namespace nbv6::core

namespace nbv6::engine {

// --------------------------------------------------------------- digests

/// FNV-1a accumulator for cache keys. Doubles are folded by bit pattern, so
/// a digest is equal iff every input is bit-identical — the same equality
/// the golden serializer uses.
class DigestBuilder {
 public:
  DigestBuilder& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
    return *this;
  }
  DigestBuilder& i64(std::int64_t v) {
    return u64(static_cast<std::uint64_t>(v));
  }
  DigestBuilder& f64(double v);  // bit pattern, not value
  DigestBuilder& str(std::string_view s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
    return u64(s.size());  // length-delimit: "ab","c" != "a","bc"
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ----------------------------------------------------------------- cache

/// One residence's simulation as the cache keeps it: what simulate_fleet
/// copies into the residence's slot on a hit.
struct Shard {
  traffic::SimulationStats stats;
  flowmon::FlowMonitor monitor;
};

/// Content-addressed result store, shared across runs (see the top of this
/// header): sampled populations under population_key and residence shards
/// under shard_key, in one map each, so an entry of one kind is never
/// bound as the other. Entries are immutable and shared, so a hit copies a
/// handle, not a fleet.
///
/// Thread-safe: every method takes one internal lock, because simulate's
/// lanes look up and store residence shards concurrently.
class PassCache {
 public:
  /// The entry stored under `key`, or null. Every call counts one lookup,
  /// and one hit when it finds an entry.
  [[nodiscard]] std::shared_ptr<const SampledFleet> population(
      std::uint64_t key) const;
  [[nodiscard]] std::shared_ptr<const Shard> shard(std::uint64_t key) const;
  void store(std::uint64_t key, std::shared_ptr<const SampledFleet> population);
  void store(std::uint64_t key, std::shared_ptr<const Shard> shard);

  /// Entries of both kinds.
  [[nodiscard]] std::size_t size() const;
  /// Lifetime lookups of both kinds, and how many of them hit.
  [[nodiscard]] std::uint64_t lookups() const;
  [[nodiscard]] std::uint64_t hits() const;

 private:
  mutable core::Mutex mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const SampledFleet>>
      populations_ NBV6_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, std::shared_ptr<const Shard>> shards_
      NBV6_GUARDED_BY(mutex_);
  mutable std::uint64_t lookups_ NBV6_GUARDED_BY(mutex_) = 0;
  mutable std::uint64_t hits_ NBV6_GUARDED_BY(mutex_) = 0;
};

// ---------------------------------------------------------------- forest

class Pipeline;

/// A what-if forest: N pipelines that share one PassCache, run one after
/// another. Each pipeline's results are exactly those of running it alone
/// against the cache as the earlier pipelines left it.
class ForestScheduler {
 public:
  struct Options {
    /// Handed to every Pipeline::run for intra-stage lanes.
    ThreadPool* pool = nullptr;
    /// Ignored: pipelines run one at a time on the calling thread.
    int workers = 1;
    /// Ignored: every bound resource stays bound after the run.
    std::vector<std::string> transient;
  };
  struct Stats {
    std::size_t executed = 0;   ///< stages actually run
    std::size_t cached = 0;     ///< stages bound from the shared cache
    /// Always 0: nothing is shared in flight, and nothing is released.
    std::size_t deduped = 0;
    std::size_t released = 0;
    std::size_t peak_resident = 0;
  };

  /// Run every pipeline in `pipelines`, in order, with
  /// Pipeline::run(cache, opts.pool), and sum their stats. Throws
  /// std::invalid_argument on a null or repeated pipeline, before any
  /// pipeline runs. If a stage throws, every pipeline's bound state is
  /// cleared before the exception propagates: output never serves a mix
  /// of stale and fresh resources from a partial forest.
  static Stats run(const std::vector<Pipeline*>& pipelines, PassCache* cache,
                   const Options& opts);
  static Stats run(const std::vector<Pipeline*>& pipelines, PassCache& cache,
                   const Options& opts) {
    return run(pipelines, &cache, opts);
  }
};

// -------------------------------------------------------------- pipeline

/// The scenario chain for one config (see the top of this header). Built by
/// core::make_scenario_pipeline; `catalog` must outlive the pipeline.
class Pipeline {
 public:
  Pipeline(FleetConfig cfg, const traffic::ServiceCatalog& catalog)
      : cfg_(std::move(cfg)), catalog_(&catalog) {}

  /// Run the five stages in order. With a cache, the population is looked
  /// up under population_key and stored there on a miss, and simulate looks
  /// up and stores residence shards; everything else runs. `pool` gives
  /// stages their lanes; it never affects results. Stats count the stages
  /// that ran (executed) and the population bound from the cache (cached).
  /// If a stage throws, nothing stays bound — not even resources an earlier
  /// successful run bound — and the exception propagates.
  ForestScheduler::Stats run(PassCache* cache = nullptr,
                             ThreadPool* pool = nullptr);

  /// The resource named `resource`, bound by the last run, as a T; a T
  /// that no resource has does not compile. Throws std::logic_error when no
  /// resource of type T has that name, or the pipeline has not run (or its
  /// run failed).
  template <typename T>
  [[nodiscard]] const T& output(std::string_view resource) const {
    const T* value = nullptr;
    if constexpr (std::is_same_v<T, SampledFleet>) {
      if (resource == "population") value = bound_.population.get();
      if (resource == "planned_fleet") value = bound_.planned.get();
    } else if constexpr (std::is_same_v<T, FleetResult>) {
      if (resource == "fleet_result") value = bound_.result.get();
    } else if constexpr (std::is_same_v<T, core::FleetStatsReport>) {
      if (resource == "stats_report") value = bound_.report.get();
    } else if constexpr (std::is_same_v<T, core::GroupComparison>) {
      if (resource == "window_panel") value = bound_.panel.get();
    } else {
      static_assert(kNoResource<T>, "no pipeline resource has this type");
    }
    if (value == nullptr)
      throw std::logic_error("resource '" + std::string(resource) +
                             "' is not bound (unknown, of another type, or "
                             "the pipeline has not run)");
    return *value;
  }

  /// Lifetime count of actual executions (cache hits excluded) of `stage`.
  /// Throws std::invalid_argument for a name that is not a stage.
  [[nodiscard]] std::uint64_t executions(std::string_view stage) const;

 private:
  friend class ForestScheduler;

  template <typename>
  static constexpr bool kNoResource = false;
  static constexpr std::array<std::string_view, 5> kStages = {
      "sample", "timeline", "simulate", "report", "window_panel"};

  /// The outputs of the last run. The population is the cache's entry
  /// itself when it hit; every other output is this pipeline's own.
  struct Bound {
    std::shared_ptr<const SampledFleet> population;
    std::shared_ptr<const SampledFleet> planned;
    std::shared_ptr<const FleetResult> result;
    std::shared_ptr<const core::FleetStatsReport> report;
    std::shared_ptr<const core::GroupComparison> panel;
  };

  /// Empty every bound resource.
  void unbind() { bound_ = {}; }

  FleetConfig cfg_;
  const traffic::ServiceCatalog* catalog_;
  std::array<std::uint64_t, kStages.size()> executions_{};
  Bound bound_;
};

}  // namespace nbv6::engine
