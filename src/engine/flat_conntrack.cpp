#include "engine/flat_conntrack.h"

#include <bit>
#include <cassert>

namespace nbv6::engine {

namespace {
constexpr std::size_t round_up_pow2(std::size_t n) {
  return std::bit_ceil(n < 4 ? std::size_t{4} : n);
}
}  // namespace

FlatConntrack::FlatConntrack(flowmon::Timestamp idle_timeout,
                             std::size_t initial_capacity)
    : idle_timeout_(idle_timeout), slots_(round_up_pow2(initial_capacity)) {}

std::size_t FlatConntrack::probe(const net::FlowKey& key,
                                 std::uint64_t hash) const {
  // Contract: 0 marks an empty slot, so a zero hash would probe forever;
  // the table is power-of-two sized so `& mask` is a valid modulo.
  assert(hash != 0);
  assert(std::has_single_bit(slots_.size()));
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash) & mask;
  while (slots_[i].hash != 0) {
    if (slots_[i].hash == hash && slots_[i].record.key == key) return i;
    i = (i + 1) & mask;
  }
  return i;
}

void FlatConntrack::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (auto& s : old) {
    if (s.hash == 0) continue;
    std::size_t i = static_cast<std::size_t>(s.hash) & mask;
    while (slots_[i].hash != 0) i = (i + 1) & mask;
    slots_[i] = std::move(s);
  }
}

FlatConntrack::Slot& FlatConntrack::insert_at(std::size_t idx,
                                              const net::FlowKey& key,
                                              std::uint64_t hash,
                                              flowmon::Timestamp now,
                                              flowmon::Scope scope) {
  // Grow at 3/4 load; the caller's probed index is stale after a rehash.
  if ((live_ + 1) * 4 > slots_.size() * 3) {
    grow();
    idx = probe(key, hash);
  }
  Slot& s = slots_[idx];
  assert(s.hash == 0);
  s.hash = hash;
  s.record = flowmon::FlowRecord{};
  s.record.key = key;
  s.record.start = now;
  s.record.scope = scope;
  s.last_activity = now;
  ++live_;
  return s;
}

void FlatConntrack::erase_slot(std::size_t idx) {
  // Contract: only live slots are erased; backward-shift deletion on an
  // empty slot would corrupt the probe chains of its neighbors.
  assert(idx < slots_.size() && slots_[idx].hash != 0);
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = idx;
  std::size_t i = (idx + 1) & mask;
  while (slots_[i].hash != 0) {
    const std::size_t ideal = static_cast<std::size_t>(slots_[i].hash) & mask;
    // Move i into the hole iff the hole lies within i's probe span
    // [ideal, i] (cyclically); otherwise i is already at-or-before its
    // ideal chain position relative to the hole.
    if (((i - ideal) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = std::move(slots_[i]);
      slots_[i].hash = 0;
      hole = i;
    }
    i = (i + 1) & mask;
  }
  slots_[hole].hash = 0;
  --live_;
}

bool FlatConntrack::hot_hit(const net::FlowKey& key) const {
  // The memo may be stale (rehash, backward shift) but never out of
  // bounds: grow() and erase_slot() keep it inside the current table.
  assert(hot_idx_ < slots_.size());
  const Slot& s = slots_[hot_idx_];
  return s.hash != 0 && s.record.key == key;
}

void FlatConntrack::emit_new(const net::FlowKey& key, flowmon::Timestamp now) {
  for (const auto& l : listeners_)
    if (l.on_new) l.on_new(key, now);
}

void FlatConntrack::emit_destroy(const flowmon::FlowRecord& r) {
  for (const auto& l : listeners_)
    if (l.on_destroy) l.on_destroy(r);
}

void FlatConntrack::open(const net::FlowKey& key, flowmon::Timestamp now,
                         flowmon::Scope scope) {
  if (hot_hit(key)) return;  // already live: no re-fire
  const std::uint64_t h = net::fused_flow_hash(key);
  const std::size_t idx = probe(key, h);
  if (slots_[idx].hash != 0) {
    hot_idx_ = idx;
    return;
  }
  Slot& s = insert_at(idx, key, h, now, scope);
  hot_idx_ = static_cast<std::size_t>(&s - slots_.data());
  emit_new(key, now);
}

bool FlatConntrack::account(const net::FlowKey& key, flowmon::Timestamp now,
                            std::uint64_t bytes_out, std::uint64_t bytes_in,
                            std::uint64_t pkts_out, std::uint64_t pkts_in,
                            flowmon::Scope scope) {
  bool known = true;
  std::size_t idx;
  if (hot_hit(key)) {
    idx = hot_idx_;
  } else {
    const std::uint64_t h = net::fused_flow_hash(key);
    idx = probe(key, h);
    known = slots_[idx].hash != 0;
    if (!known) {
      Slot& ins = insert_at(idx, key, h, now, scope);
      idx = static_cast<std::size_t>(&ins - slots_.data());
      emit_new(key, now);
    }
    hot_idx_ = idx;
  }
  Slot& s = slots_[idx];
  auto& rec = s.record;
  rec.bytes_out += bytes_out;
  rec.bytes_in += bytes_in;
  // Unmodelled packets: one per 1400 bytes (full-ish MTU).
  rec.packets_out += pkts_out > 0 ? pkts_out : (bytes_out + 1399) / 1400;
  rec.packets_in += pkts_in > 0 ? pkts_in : (bytes_in + 1399) / 1400;
  s.last_activity = now;
  return known;
}

bool FlatConntrack::close(const net::FlowKey& key, flowmon::Timestamp now) {
  std::size_t idx;
  if (hot_hit(key)) {
    idx = hot_idx_;
  } else {
    idx = probe(key, net::fused_flow_hash(key));
    if (slots_[idx].hash == 0) return false;
  }
  slots_[idx].record.end = now;
  // Emit from the live slot (no record copy), then unlink. Listeners must
  // not reenter the table — the same contract sweep/flush impose while
  // iterating.
  emit_destroy(slots_[idx].record);
  erase_slot(idx);
  return true;
}

std::size_t FlatConntrack::sweep(flowmon::Timestamp now) {
  // Collect first, erase second: erasing in-place while scanning can
  // backward-shift a not-yet-examined entry behind the cursor (wrap-around
  // probe chains), silently skipping an eviction. Sweep is rare relative to
  // open/account/close, so the scratch copy is cheap.
  sweep_scratch_.clear();
  for (auto& s : slots_) {
    if (s.hash != 0 && now - s.last_activity >= idle_timeout_) {
      s.record.end = s.last_activity;
      sweep_scratch_.push_back(s.record);
    }
  }
  for (const auto& r : sweep_scratch_) {
    const std::size_t idx = probe(r.key, net::fused_flow_hash(r.key));
    assert(slots_[idx].hash != 0);
    erase_slot(idx);
    emit_destroy(r);
  }
  return sweep_scratch_.size();
}

void FlatConntrack::flush(flowmon::Timestamp now) {
  for (auto& s : slots_) {
    if (s.hash == 0) continue;
    s.record.end = now;
    emit_destroy(s.record);
    s.hash = 0;
  }
  live_ = 0;
}

}  // namespace nbv6::engine
