#include "engine/pipeline.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace nbv6::engine {

DigestBuilder& DigestBuilder::f64(double v) {
  return u64(std::bit_cast<std::uint64_t>(v));
}

// ----------------------------------------------------------------- cache

// The entry under `key` in `map`, or null, counted as one lookup (and one
// hit when found). Called with the cache's lock held.
template <typename Map>
static typename Map::mapped_type counted_find(const Map& map, std::uint64_t key,
                                              std::uint64_t& lookups,
                                              std::uint64_t& hits) {
  ++lookups;
  const auto it = map.find(key);
  if (it == map.end()) return nullptr;
  ++hits;
  return it->second;
}

std::shared_ptr<const SampledFleet> PassCache::population(
    std::uint64_t key) const {
  core::MutexLock lock(mutex_);
  return counted_find(populations_, key, lookups_, hits_);
}

std::shared_ptr<const Shard> PassCache::shard(std::uint64_t key) const {
  core::MutexLock lock(mutex_);
  return counted_find(shards_, key, lookups_, hits_);
}

void PassCache::store(std::uint64_t key,
                      std::shared_ptr<const SampledFleet> population) {
  if (population == nullptr) throw std::invalid_argument("PassCache: null");
  core::MutexLock lock(mutex_);
  populations_[key] = std::move(population);
}

void PassCache::store(std::uint64_t key, std::shared_ptr<const Shard> shard) {
  if (shard == nullptr) throw std::invalid_argument("PassCache: null");
  core::MutexLock lock(mutex_);
  shards_[key] = std::move(shard);
}

std::size_t PassCache::size() const {
  core::MutexLock lock(mutex_);
  return populations_.size() + shards_.size();
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

std::uint64_t Pipeline::executions(std::string_view stage) const {
  const auto it = std::ranges::find(kStages, stage);
  if (it == kStages.end())
    throw std::invalid_argument("unknown stage '" + std::string(stage) + "'");
  return executions_[static_cast<std::size_t>(it - kStages.begin())];
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
