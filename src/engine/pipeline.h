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
/// Thread-safe: find/store/erase take an internal lock, and find copies
/// the entry out (PipelineValue is a shared handle, so the copy is a few
/// refcount bumps, not a fleet result). The old "pointer valid until the
/// next store" contract is gone — it was unenforceable once the forest
/// scheduler started storing from concurrent passes.
class PassCache {
 public:
  /// Hit iff the digest maps to an entry stored by a pass with the same
  /// name and output count; nullopt otherwise.
  [[nodiscard]] std::optional<std::vector<PipelineValue>> find(
      std::uint64_t digest, std::string_view pass,
      std::size_t output_count) const;
  void store(std::uint64_t digest, std::string_view pass,
             std::vector<PipelineValue> outputs);
  /// Drop the entry (transient-resource release); name-guarded like find.
  /// Returns whether an entry was removed.
  bool erase(std::uint64_t digest, std::string_view pass);

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

namespace detail {
struct ForestRun;  // scheduler implementation, defined in pipeline.cpp
}  // namespace detail

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

  /// The run's pool; nullptr = sequential. Passes must produce
  /// lane-invariant results (everything built on the fleet stages does).
  [[nodiscard]] ThreadPool* pool() const { return pool_; }
  /// The run's PassCache; nullptr when the run is uncached. A pass may
  /// store and look up sub-results of its own under names no pass uses
  /// (simulate keeps residence shards under "simulate.shard").
  [[nodiscard]] PassCache* cache() const { return cache_; }

  [[nodiscard]] const PipelineValue& input_value(std::string_view name) const;
  void set_output(std::string_view name, PipelineValue v);

 private:
  friend struct detail::ForestRun;
  const std::vector<std::string>* input_names_ = nullptr;
  const std::vector<PipelineValue*>* inputs_ = nullptr;
  const std::vector<std::string>* output_names_ = nullptr;
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

/// Cross-pipeline overlapped scheduler: runs N pipelines that share one
/// PassCache as a single merged frontier, dispatching ready passes from
/// *different* pipelines concurrently as tasks on a ThreadPool (variant B
/// simulates while variant A computes panels). Per-pipeline results are
/// identical to running each pipeline serially — passes are deterministic
/// and lane-invariant, so only wall-clock and peak memory change.
///
/// Two forest-only mechanisms on top of plain per-pipeline runs:
///
///   - In-flight dedup. When two pipelines need the same uncomputed pass
///     (equal digest, same pass name and output arity), the first to become
///     ready executes it and the second binds the finished outputs — the
///     pass runs once for the whole forest even when both variants hit the
///     frontier before either result lands in the cache.
///   - Transient resource release. A resource named in Options::transient
///     is dropped — unbound from every holding pipeline and erased from the
///     cache — as soon as its last consumer anywhere in the forest has run.
///     This caps peak RSS for hundred-variant forests whose intermediates
///     (e.g. planned_fleet) would otherwise all stay live. Transient
///     resources are not retrievable via output_value after the run.
///
/// Passes executed on pool tasks receive a null PassContext::pool() (the
/// pool's one rule is no nested parallel_for from inside a task);
/// cross-variant overlap replaces intra-pass lanes. With workers <= 1 or
/// no pool the same scheduler runs inline on the caller — dedup, release,
/// and stats behave identically, and passes keep Options::pool for
/// intra-pass parallel_for.
///
/// Without a cache (nullptr) nothing is shared: no lookup, no store, no
/// in-flight dedup, and every pass of every pipeline executes. This is the
/// only executor; Pipeline::run is a one-pipeline forest run.
///
/// On a pass failure the first exception is rethrown after all in-flight
/// tasks drain, and every pipeline's bound state is cleared: output_value
/// never serves a mix of stale and fresh resources from a partial run.
class ForestScheduler {
 public:
  struct Options {
    /// Task pool for overlapped execution (also handed to passes when
    /// running inline). nullptr or workers <= 1 = inline scheduling.
    ThreadPool* pool = nullptr;
    /// Maximum passes in flight at once (effective concurrency is capped
    /// by the pool size).
    int workers = 1;
    /// Resource names to release once their last forest consumer ran.
    /// A transient should have at least one consumer in every pipeline
    /// that produces it; a consumerless instance is released as soon as
    /// every pipeline producing it has bound it (never earlier — an early
    /// release would evict the cache entry a digest-identical twin
    /// producer still needs, breaking forest-wide dedup).
    std::vector<std::string> transient;
  };
  struct Stats {
    std::size_t executed = 0;   ///< passes actually run
    std::size_t cached = 0;     ///< passes bound from the shared cache
    std::size_t deduped = 0;    ///< passes bound from an in-flight twin
    std::size_t released = 0;   ///< transient instances released
    /// Peak number of transient resource instances live at once — the
    /// residency figure the sweep driver reports (25 variants with release
    /// hold ~1, without release all 25 planned fleets stay resident).
    std::size_t peak_resident = 0;
  };

  /// Run every pipeline in `pipelines` to completion. Pipelines must be
  /// distinct objects; results (bound resources, execution counters) land
  /// exactly as if each had run alone against the same warm cache. Throws
  /// std::invalid_argument on an input no pass produces and on dependency
  /// cycles.
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
  /// Register a pass. Throws std::invalid_argument on a duplicate pass
  /// name, a duplicate output resource, or a missing run function.
  Pipeline& add(Pass pass);

  /// Replace a registered pass wholesale (same-name passes swap in place,
  /// keeping execution counters) — the in-place path for dirty-node
  /// experiments. Throws std::invalid_argument if no such pass exists.
  Pipeline& replace(const Pass& pass);

  /// Execute every pass: a one-pipeline ForestScheduler run, inline on the
  /// caller (no thread is started). With a cache, digest-matching passes
  /// bind their cached outputs instead of running. `pool` is handed to pass
  /// contexts for intra-pass lanes; it never affects results. Throws and
  /// rolls back exactly as ForestScheduler::run does.
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
  /// independent passes) — the order the digest cascade walks.
  [[nodiscard]] std::vector<std::string> schedule();

  [[nodiscard]] std::size_t pass_count() const { return nodes_.size(); }

 private:
  friend struct detail::ForestRun;

  struct Node {
    Pass pass;
    std::uint64_t executions = 0;
    std::uint64_t last_digest = 0;
  };

  std::size_t index_of(std::string_view pass) const;
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
