#include "engine/pipeline.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace nbv6::engine {

DigestBuilder& DigestBuilder::f64(double v) {
  return u64(std::bit_cast<std::uint64_t>(v));
}

// ----------------------------------------------------------------- cache

std::optional<std::vector<PipelineValue>> PassCache::find(
    std::uint64_t digest, std::string_view pass,
    std::size_t output_count) const {
  core::MutexLock lock(mutex_);
  ++lookups_;
  auto it = map_.find(digest);
  if (it == map_.end()) return std::nullopt;
  // A key collision across producers (different name, or a different
  // arity) must read as a miss, not as someone else's outputs.
  if (it->second.pass != pass || it->second.outputs.size() != output_count)
    return std::nullopt;
  ++hits_;
  return it->second.outputs;  // copies shared handles, not payloads
}

void PassCache::store(std::uint64_t digest, std::string_view pass,
                      std::vector<PipelineValue> outputs) {
  core::MutexLock lock(mutex_);
  map_[digest] = Entry{std::string(pass), std::move(outputs)};
}

std::size_t PassCache::size() const {
  core::MutexLock lock(mutex_);
  return map_.size();
}

std::uint64_t PassCache::lookups() const {
  core::MutexLock lock(mutex_);
  return lookups_;
}

std::uint64_t PassCache::hits() const {
  core::MutexLock lock(mutex_);
  return hits_;
}

// -------------------------------------------------------------- pipeline

const PipelineValue& Pipeline::output_value(std::string_view resource) const {
  for (std::size_t i = 0; i < kStages.size(); ++i) {
    if (kStages[i].resource == resource && bound_[i].has_value())
      return bound_[i];
  }
  throw std::logic_error("resource '" + std::string(resource) +
                         "' is not bound (unknown, or the pipeline has not "
                         "run)");
}

std::uint64_t Pipeline::executions(std::string_view stage) const {
  for (std::size_t i = 0; i < kStages.size(); ++i) {
    if (kStages[i].name == stage) return executions_[i];
  }
  throw std::invalid_argument("unknown stage '" + std::string(stage) + "'");
}

// ---------------------------------------------------------------- forest

ForestScheduler::Stats ForestScheduler::run(
    const std::vector<Pipeline*>& pipelines, PassCache* cache,
    const Options& opts) {
  for (auto p = pipelines.begin(); p != pipelines.end(); ++p) {
    if (*p == nullptr)
      throw std::invalid_argument("ForestScheduler: null pipeline");
    if (std::find(pipelines.begin(), p, *p) != p)
      throw std::invalid_argument(
          "ForestScheduler: the same pipeline appears twice");
  }
  Stats total;
  try {
    for (Pipeline* p : pipelines) {
      const Stats s = p->run(cache, opts.pool);
      total.executed += s.executed;
      total.cached += s.cached;
    }
  } catch (...) {
    for (Pipeline* p : pipelines) p->unbind();
    throw;
  }
  return total;
}

}  // namespace nbv6::engine
