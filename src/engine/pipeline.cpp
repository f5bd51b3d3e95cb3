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
  auto it = map_.find(digest);
  if (it == map_.end()) return std::nullopt;
  // A digest collision across passes (different name, or same name with a
  // different arity after a replace()) must read as a miss, not as someone
  // else's outputs.
  if (it->second.pass != pass || it->second.outputs.size() != output_count)
    return std::nullopt;
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

// --------------------------------------------------------------- context

const PipelineValue& PassContext::input_value(std::string_view name) const {
  const auto& inputs = pass_->inputs;
  if (std::find(inputs.begin(), inputs.end(), name) == inputs.end())
    throw std::logic_error("pass reads undeclared input '" + std::string(name) +
                           "'");
  return bound_->at(std::string(name));
}

void PassContext::set_output(std::string_view name, PipelineValue v) {
  const auto& names = pass_->outputs;
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end())
    throw std::logic_error("pass sets undeclared output '" + std::string(name) +
                           "'");
  PipelineValue& slot = (*outputs_)[static_cast<std::size_t>(it - names.begin())];
  if (slot.has_value())
    throw std::logic_error("pass sets output '" + std::string(name) +
                           "' twice");
  slot = std::move(v);
}

// -------------------------------------------------------------- pipeline

void Pipeline::check_pass(const Pass& pass, std::size_t self) const {
  if (!pass.run)
    throw std::invalid_argument("pass '" + pass.name + "' has no run function");
  for (auto out = pass.outputs.begin(); out != pass.outputs.end(); ++out) {
    if (std::find(pass.outputs.begin(), out, *out) != out)
      throw std::invalid_argument("pass '" + pass.name + "' lists output '" +
                                  *out + "' twice");
    auto it = producer_.find(*out);
    if (it != producer_.end() && it->second != self)
      throw std::invalid_argument("resource '" + *out +
                                  "' already has a producer");
  }
}

Pipeline& Pipeline::add(Pass pass) {
  for (const auto& n : nodes_) {
    if (n.pass.name == pass.name)
      throw std::invalid_argument("duplicate pass name '" + pass.name + "'");
  }
  const std::size_t idx = nodes_.size();
  check_pass(pass, idx);
  for (const auto& out : pass.outputs) producer_.emplace(out, idx);
  nodes_.push_back(Node{std::move(pass), 0});
  order_valid_ = false;
  return *this;
}

Pipeline& Pipeline::replace(const Pass& pass) {
  const std::size_t idx = index_of(pass.name);
  check_pass(pass, idx);
  // Re-key the producer map: the replacement may rename outputs.
  for (const auto& out : nodes_[idx].pass.outputs) producer_.erase(out);
  for (const auto& out : pass.outputs) producer_.emplace(out, idx);
  nodes_[idx].pass = pass;
  order_valid_ = false;
  return *this;
}

std::size_t Pipeline::index_of(std::string_view pass) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].pass.name == pass) return i;
  }
  throw std::invalid_argument("unknown pass '" + std::string(pass) + "'");
}

void Pipeline::ensure_order() {
  if (order_valid_) return;
  order_.clear();
  order_.reserve(nodes_.size());

  // Kahn's algorithm over producer edges, visiting ready passes in
  // registration order so the schedule is deterministic.
  std::vector<std::size_t> pending(nodes_.size(), 0);
  std::vector<std::vector<std::size_t>> dependents(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (const auto& in : nodes_[i].pass.inputs) {
      auto it = producer_.find(in);
      if (it == producer_.end())
        throw std::invalid_argument("pass '" + nodes_[i].pass.name +
                                    "' consumes resource '" + in +
                                    "' that no pass produces");
      dependents[it->second].push_back(i);
      ++pending[i];
    }
  }
  std::vector<bool> scheduled(nodes_.size(), false);
  bool progressed = true;
  while (order_.size() < nodes_.size() && progressed) {
    progressed = false;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (scheduled[i] || pending[i] != 0) continue;
      scheduled[i] = true;
      order_.push_back(i);
      for (std::size_t dep : dependents[i]) --pending[dep];
      progressed = true;
    }
  }
  if (order_.size() < nodes_.size()) {
    std::string cyclic;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!scheduled[i]) cyclic += (cyclic.empty() ? "" : ", ") + nodes_[i].pass.name;
    }
    throw std::invalid_argument("dependency cycle among passes: " + cyclic);
  }
  order_valid_ = true;
}

ForestScheduler::Stats Pipeline::run(PassCache* cache, ThreadPool* pool) {
  ensure_order();
  bound_.clear();

  // Digests are a pure function of the graph (see Pass in pipeline.h), so
  // the whole cascade is computed before any pass runs.
  std::vector<std::uint64_t> digests(nodes_.size());
  std::unordered_map<std::string, std::uint64_t> resource_digest;
  for (std::size_t idx : order_) {
    const Pass& pass = nodes_[idx].pass;
    DigestBuilder db;
    db.str(pass.name).u64(pass.config_digest);
    for (const auto& in : pass.inputs) db.u64(resource_digest.at(in));
    digests[idx] = db.value();
    for (std::size_t o = 0; o < pass.outputs.size(); ++o)
      resource_digest[pass.outputs[o]] =
          DigestBuilder().u64(digests[idx]).u64(o).value();
  }

  ForestScheduler::Stats stats;
  try {
    for (std::size_t idx : order_) {
      Node& node = nodes_[idx];
      const Pass& pass = node.pass;
      std::optional<std::vector<PipelineValue>> outputs;
      if (cache != nullptr)
        outputs = cache->find(digests[idx], pass.name, pass.outputs.size());
      if (outputs) {
        ++stats.cached;
      } else {
        outputs.emplace(pass.outputs.size());
        PassContext ctx;
        ctx.pass_ = &pass;
        ctx.bound_ = &bound_;
        ctx.outputs_ = &*outputs;
        ctx.pool_ = pool;
        ctx.cache_ = cache;
        pass.run(ctx);
        for (std::size_t o = 0; o < outputs->size(); ++o) {
          if (!(*outputs)[o].has_value())
            throw std::logic_error("pass '" + pass.name +
                                   "' did not set declared output '" +
                                   pass.outputs[o] + "'");
        }
        ++node.executions;
        ++stats.executed;
        if (cache != nullptr) cache->store(digests[idx], pass.name, *outputs);
      }
      for (std::size_t o = 0; o < pass.outputs.size(); ++o)
        bound_[pass.outputs[o]] = std::move((*outputs)[o]);
    }
  } catch (...) {
    // No partial state: a failed run serves no stale/fresh mix.
    bound_.clear();
    throw;
  }
  return stats;
}

const PipelineValue& Pipeline::output_value(std::string_view resource) const {
  auto it = bound_.find(std::string(resource));
  if (it == bound_.end())
    throw std::logic_error("resource '" + std::string(resource) +
                           "' is not bound (unknown, or the pipeline has not "
                           "run)");
  return it->second;
}

std::uint64_t Pipeline::executions(std::string_view pass) const {
  return nodes_[index_of(pass)].executions;
}

std::vector<std::string> Pipeline::schedule() {
  ensure_order();
  std::vector<std::string> out;
  out.reserve(order_.size());
  for (std::size_t idx : order_) out.push_back(nodes_[idx].pass.name);
  return out;
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
    (*p)->ensure_order();
  }
  Stats total;
  try {
    for (Pipeline* p : pipelines) {
      const Stats s = p->run(cache, opts.pool);
      total.executed += s.executed;
      total.cached += s.cached;
    }
  } catch (...) {
    for (Pipeline* p : pipelines) p->bound_.clear();
    throw;
  }
  return total;
}

}  // namespace nbv6::engine
