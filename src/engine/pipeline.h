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
// Pipeline is that chain for one FleetConfig. core::make_scenario_pipeline
// builds one; Pipeline::run is defined in core/scenario_pipeline.cpp, the
// one file that knows the stage functions. Outputs are held type-erased,
// so this header needs no core/ analysis types.
//
// A PassCache shared across runs holds two kinds of entry: the sampled
// population under engine::population_key (pass name "sample"), so
// variants that differ only in their timeline sample their base once; and
// each residence's simulation under engine::shard_key (pass name
// "simulate.shard"), so a variant re-simulates only the homes its timeline
// re-plans. Timeline, report and window panel always run. Keys exclude lane
// count: every stage is bit-identical for any lane count, so a cached
// result is valid across thread configurations. A what-if forest
// (ForestScheduler::run) is a loop of Pipeline::run over one cache.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeinfo>
#include <unordered_map>
#include <vector>

#include "core/thread_annotations.h"
#include "engine/fleet.h"
#include "engine/thread_pool.h"
#include "traffic/service_catalog.h"

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

// ---------------------------------------------------------------- values

/// Type-erased, immutable, shareable stage result. Cache entries and bound
/// resources hold the same shared payload, so a cache hit never copies.
class PipelineValue {
 public:
  PipelineValue() = default;

  template <typename T>
  static PipelineValue wrap(T value) {
    PipelineValue v;
    v.ptr_ = std::make_shared<const T>(std::move(value));
    v.type_ = &typeid(T);
    return v;
  }

  template <typename T>
  [[nodiscard]] const T& get() const {
    if (ptr_ == nullptr)
      throw std::logic_error("PipelineValue::get on an empty value");
    if (*type_ != typeid(T))
      throw std::logic_error(std::string("PipelineValue::get type mismatch: "
                                         "held ") +
                             type_->name() + ", asked for " + typeid(T).name());
    return *static_cast<const T*>(ptr_.get());
  }

  [[nodiscard]] bool has_value() const { return ptr_ != nullptr; }

 private:
  std::shared_ptr<const void> ptr_;
  const std::type_info* type_ = nullptr;
};

// ----------------------------------------------------------------- cache

/// Content-addressed result store, shared across runs (see the top of this
/// header). The value is an output list, output-index aligned.
///
/// Entries also record the producer's name and output count, and a lookup
/// whose name or count disagrees is a miss: a 64-bit key collision between
/// two different producers must never bind one's outputs (wrong arity,
/// wrong types) as the other's.
///
/// Thread-safe: find/store take an internal lock, because simulate's lanes
/// store residence shards concurrently. find copies the entry out
/// (PipelineValue is a shared handle, so the copy is a few refcount bumps,
/// not a fleet result).
class PassCache {
 public:
  /// Hit iff the digest maps to an entry stored by a producer with the same
  /// name and output count; nullopt otherwise. Counts one lookup, and one
  /// hit when it hits.
  [[nodiscard]] std::optional<std::vector<PipelineValue>> find(
      std::uint64_t digest, std::string_view pass,
      std::size_t output_count) const;
  void store(std::uint64_t digest, std::string_view pass,
             std::vector<PipelineValue> outputs);

  [[nodiscard]] std::size_t size() const;
  /// Lifetime find calls, and how many of them hit.
  [[nodiscard]] std::uint64_t lookups() const;
  [[nodiscard]] std::uint64_t hits() const;

 private:
  struct Entry {
    std::string pass;
    std::vector<PipelineValue> outputs;
  };
  mutable core::Mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> map_ NBV6_GUARDED_BY(mutex_);
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
  /// cleared before the exception propagates: output_value never serves a
  /// mix of stale and fresh resources from a partial forest.
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

  /// A resource bound by the last run. Throws std::logic_error when the
  /// resource is unknown or the pipeline has not run (or its run failed).
  [[nodiscard]] const PipelineValue& output_value(
      std::string_view resource) const;
  template <typename T>
  [[nodiscard]] const T& output(std::string_view resource) const {
    return output_value(resource).get<T>();
  }

  /// Lifetime count of actual executions (cache hits excluded) of `stage`.
  /// Throws std::invalid_argument for a name that is not a stage.
  [[nodiscard]] std::uint64_t executions(std::string_view stage) const;

 private:
  friend class ForestScheduler;

  struct Stage {
    std::string_view name;
    std::string_view resource;
  };
  static constexpr std::array<Stage, 5> kStages = {{
      {"sample", "population"},
      {"timeline", "planned_fleet"},
      {"simulate", "fleet_result"},
      {"report", "stats_report"},
      {"window_panel", "window_panel"},
  }};

  /// Empty every bound resource.
  void unbind() { bound_ = {}; }

  FleetConfig cfg_;
  const traffic::ServiceCatalog* catalog_;
  std::array<std::uint64_t, kStages.size()> executions_{};
  /// Stage i's output bound by the last run, kStages-aligned.
  std::array<PipelineValue, kStages.size()> bound_;
};

}  // namespace nbv6::engine
