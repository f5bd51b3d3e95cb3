// Pass-graph pipeline runtime: the scenario pipeline as an explicit DAG.
//
// Every experiment binary used to hard-wire the same chain — sample →
// timeline → simulate → reduce → extract → panels → figure files — with its
// own entry point and knobs. This module makes the chain a data structure,
// modeled on render-graph pass registration: each *pass* declares the named
// *resources* it consumes and produces plus a digest of the config slice it
// reads; the runtime topologically orders the passes, content-hashes each
// one over (pass name, config slice, upstream output digests), and consults
// a shared PassCache before executing. Two consequences fall out:
//
//   - Shared sub-results across scenario variants. Fifty what-if variants
//     of one base scenario differ only in their timeline slice, so their
//     "sample" passes digest identically — the base population is sampled
//     once and every variant binds the cached value (asserted by the sweep
//     driver's per-pass execution counters). Below the passes, the
//     simulate pass keeps each residence's shard in the same cache under
//     engine::shard_key (pass name "simulate.shard"): the catalog digest,
//     the ResidenceConfig without its day_plan_fn, and the DayPlans that
//     closure returns for the horizon. A variant whose timeline re-plans
//     a few homes re-simulates only those homes.
//   - Dirty-node sweeps. Changing one timeline parameter changes the
//     timeline pass's config digest, which cascades through downstream
//     digests; upstream passes keep hitting the cache and only the dirty
//     suffix re-executes. Re-running an unchanged pipeline executes
//     nothing at all.
//
// Digests deliberately exclude lane count and pool identity: every stage is
// bit-identical for any lane count (the replay guarantee the golden suite
// pins), so a cached result is valid across thread configurations.
//
// Pipeline::run is the one executor: it walks the passes in topological
// order on the calling thread, and a pass uses the run's pool for lanes
// inside itself. A what-if forest (ForestScheduler::run) is a loop of
// Pipeline::run over one shared cache.
//
// The runtime is type-agnostic (PipelineValue erases the payload); the
// standard scenario passes are registered by core/scenario_pipeline.h.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeinfo>
#include <unordered_map>
#include <vector>

#include "core/thread_annotations.h"
#include "engine/thread_pool.h"

namespace nbv6::engine {

// --------------------------------------------------------------- digests

/// FNV-1a accumulator for pass config-slice digests. Doubles are folded by
/// bit pattern, so a digest is equal iff every input is bit-identical —
/// the same equality the golden serializer uses.
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

/// Type-erased, immutable, shareable pass result. Cache entries and bound
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

/// Content-addressed pass-result store, shared across pipelines (the
/// vehicle for cross-variant reuse in scenario sweeps). Keyed by the pass
/// digest; the value is the pass's output list, output-index aligned.
///
/// Entries also record the producing pass's name and output count, and a
/// lookup whose name or count disagrees is a miss: a 64-bit digest
/// collision between two different passes must never bind one pass's
/// outputs (wrong arity, wrong types) as another's.
///
/// Thread-safe: find/store take an internal lock, because simulate's lanes
/// store residence shards concurrently. find copies the entry out
/// (PipelineValue is a shared handle, so the copy is a few refcount bumps,
/// not a fleet result).
class PassCache {
 public:
  /// Hit iff the digest maps to an entry stored by a pass with the same
  /// name and output count; nullopt otherwise.
  [[nodiscard]] std::optional<std::vector<PipelineValue>> find(
      std::uint64_t digest, std::string_view pass,
      std::size_t output_count) const;
  void store(std::uint64_t digest, std::string_view pass,
             std::vector<PipelineValue> outputs);

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::string pass;
    std::vector<PipelineValue> outputs;
  };
  mutable core::Mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> map_ NBV6_GUARDED_BY(mutex_);
};

// ---------------------------------------------------------------- passes

class Pipeline;
struct Pass;

/// What a pass's run function sees: its bound inputs, a place to put its
/// outputs, and the run's worker pool.
class PassContext {
 public:
  /// Input resource by name; throws std::logic_error if the pass did not
  /// declare it (undeclared reads would break digest soundness).
  template <typename T>
  [[nodiscard]] const T& in(std::string_view resource) const {
    return input_value(resource).get<T>();
  }
  /// Bind one declared output. Every declared output must be set exactly
  /// once; the runtime throws otherwise.
  template <typename T>
  void out(std::string_view resource, T value) {
    set_output(resource, PipelineValue::wrap(std::move(value)));
  }

  /// The pool handed to Pipeline::run; nullptr = sequential. The pass runs
  /// on the calling thread, so it may parallel_for on this pool. Passes
  /// must produce lane-invariant results (everything built on the fleet
  /// stages does).
  [[nodiscard]] ThreadPool* pool() const { return pool_; }
  /// The run's PassCache; nullptr when the run is uncached. A pass may
  /// store and look up sub-results of its own under names no pass uses
  /// (simulate keeps residence shards under "simulate.shard").
  [[nodiscard]] PassCache* cache() const { return cache_; }

  [[nodiscard]] const PipelineValue& input_value(std::string_view name) const;
  void set_output(std::string_view name, PipelineValue v);

 private:
  friend class Pipeline;
  const Pass* pass_ = nullptr;
  const std::unordered_map<std::string, PipelineValue>* bound_ = nullptr;
  std::vector<PipelineValue>* outputs_ = nullptr;
  ThreadPool* pool_ = nullptr;
  PassCache* cache_ = nullptr;
};

/// One registered pass. `config_digest` must cover every configuration
/// input the run function reads that is not a declared resource — it is
/// the pass's half of the content hash, so an undigested config read makes
/// cache reuse unsound.
///
/// The digest cascade (the cache key of every pass, walked in topological
/// order): a pass's digest is
///   DigestBuilder().str(name).u64(config_digest)
/// followed by .u64(d) for each declared input's resource digest d, in
/// declaration order; output o of a pass with digest p has resource digest
/// DigestBuilder().u64(p).u64(o).
struct Pass {
  std::string name;                   ///< unique within the pipeline
  std::vector<std::string> inputs;    ///< resource names consumed
  std::vector<std::string> outputs;   ///< resource names produced (unique)
  std::uint64_t config_digest = 0;
  std::function<void(PassContext&)> run;
};

// ---------------------------------------------------------------- forest

/// A what-if forest: N pipelines that share one PassCache, run one after
/// another. Each pipeline's results are exactly those of running it alone
/// against the cache as the earlier pipelines left it.
class ForestScheduler {
 public:
  struct Options {
    /// Handed to every Pipeline::run for intra-pass lanes.
    ThreadPool* pool = nullptr;
    /// Ignored: pipelines run one at a time on the calling thread.
    int workers = 1;
    /// Ignored: every bound resource stays bound after the run.
    std::vector<std::string> transient;
  };
  struct Stats {
    std::size_t executed = 0;   ///< passes actually run
    std::size_t cached = 0;     ///< passes bound from the shared cache
    /// Always 0: nothing is shared in flight, and nothing is released.
    std::size_t deduped = 0;
    std::size_t released = 0;
    std::size_t peak_resident = 0;
  };

  /// Run every pipeline in `pipelines`, in order, with
  /// Pipeline::run(cache, opts.pool), and sum their stats. Throws
  /// std::invalid_argument on a null or repeated pipeline, an input no
  /// pass produces, or a dependency cycle, before any pass runs. If a pass
  /// throws, every pipeline's bound state is cleared before the exception
  /// propagates: output_value never serves a mix of stale and fresh
  /// resources from a partial run.
  static Stats run(const std::vector<Pipeline*>& pipelines, PassCache* cache,
                   const Options& opts);
  static Stats run(const std::vector<Pipeline*>& pipelines, PassCache& cache,
                   const Options& opts) {
    return run(pipelines, &cache, opts);
  }
};

// -------------------------------------------------------------- pipeline

class Pipeline {
 public:
  /// Register a pass. Throws std::invalid_argument, leaving the pipeline
  /// unchanged, on a duplicate pass name, a missing run function, an output
  /// listed twice, or an output another pass already produces.
  Pipeline& add(Pass pass);

  /// Replace a registered pass wholesale (same-name passes swap in place,
  /// keeping execution counters) — the in-place path for dirty-node
  /// experiments. Throws std::invalid_argument, leaving the pipeline
  /// unchanged, if no such pass exists or on any output add() rejects.
  Pipeline& replace(const Pass& pass);

  /// Execute every pass in schedule() order on the calling thread. With a
  /// cache, a pass whose digest hits binds the cached outputs instead of
  /// running; a pass that runs stores its outputs. `pool` is handed to pass
  /// contexts for intra-pass lanes; it never affects results. Throws
  /// std::invalid_argument on an input no pass produces or a dependency
  /// cycle; if a pass throws, the bound state is cleared and the exception
  /// propagates.
  ForestScheduler::Stats run(PassCache* cache = nullptr,
                             ThreadPool* pool = nullptr);

  /// A resource bound by the last run. Throws std::logic_error when the
  /// resource is unknown or the pipeline has not run yet.
  [[nodiscard]] const PipelineValue& output_value(
      std::string_view resource) const;
  template <typename T>
  [[nodiscard]] const T& output(std::string_view resource) const {
    return output_value(resource).get<T>();
  }

  /// Lifetime count of actual executions (cache hits excluded) of `pass`.
  [[nodiscard]] std::uint64_t executions(std::string_view pass) const;

  /// Pass names in topological order (registration order among
  /// independent passes) — the order run() and the digest cascade walk.
  [[nodiscard]] std::vector<std::string> schedule();

  [[nodiscard]] std::size_t pass_count() const { return nodes_.size(); }

 private:
  friend class ForestScheduler;

  struct Node {
    Pass pass;
    std::uint64_t executions = 0;
  };

  std::size_t index_of(std::string_view pass) const;
  /// Throws unless `pass` has a run function and each of its outputs is
  /// listed once and produced by no node other than `self`.
  void check_pass(const Pass& pass, std::size_t self) const;
  void ensure_order();

  std::vector<Node> nodes_;
  /// resource name -> producing node index.
  std::unordered_map<std::string, std::size_t> producer_;
  /// Topological order (registration order among independent passes).
  std::vector<std::size_t> order_;
  bool order_valid_ = false;
  /// resource name -> value bound by the last run.
  std::unordered_map<std::string, PipelineValue> bound_;
};

}  // namespace nbv6::engine
