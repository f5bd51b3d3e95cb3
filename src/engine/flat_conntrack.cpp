#include "engine/flat_conntrack.h"

namespace nbv6::engine {

std::size_t FlatConntrack::find(const net::FlowKey& key) const {
  std::size_t i = 0;
  while (i < live_.size() && !(live_[i].record.key == key)) ++i;
  return i;
}

FlatConntrack::Live& FlatConntrack::insert(const net::FlowKey& key,
                                           flowmon::Timestamp now,
                                           flowmon::Scope scope) {
  Live& l = live_.emplace_back();
  l.record.key = key;
  l.record.start = now;
  l.record.scope = scope;
  l.last_activity = now;
  for (const auto& listener : listeners_)
    if (listener.on_new) listener.on_new(key, now);
  return l;
}

void FlatConntrack::destroy(std::size_t idx) {
  // Emit from the live entry (no record copy), then unlink. Listeners must
  // not reenter the table.
  for (const auto& listener : listeners_)
    if (listener.on_destroy) listener.on_destroy(live_[idx].record);
  if (idx + 1 != live_.size()) live_[idx] = std::move(live_.back());
  live_.pop_back();
}

void FlatConntrack::open(const net::FlowKey& key, flowmon::Timestamp now,
                         flowmon::Scope scope) {
  if (find(key) == live_.size()) insert(key, now, scope);
}

bool FlatConntrack::account(const net::FlowKey& key, flowmon::Timestamp now,
                            std::uint64_t bytes_out, std::uint64_t bytes_in,
                            std::uint64_t pkts_out, std::uint64_t pkts_in,
                            flowmon::Scope scope) {
  const std::size_t idx = find(key);
  const bool known = idx != live_.size();
  Live& l = known ? live_[idx] : insert(key, now, scope);
  auto& rec = l.record;
  rec.bytes_out += bytes_out;
  rec.bytes_in += bytes_in;
  // Unmodelled packets: one per 1400 bytes (full-ish MTU).
  rec.packets_out += pkts_out > 0 ? pkts_out : (bytes_out + 1399) / 1400;
  rec.packets_in += pkts_in > 0 ? pkts_in : (bytes_in + 1399) / 1400;
  l.last_activity = now;
  return known;
}

bool FlatConntrack::close(const net::FlowKey& key, flowmon::Timestamp now) {
  const std::size_t idx = find(key);
  if (idx == live_.size()) return false;
  live_[idx].record.end = now;
  destroy(idx);
  return true;
}

std::size_t FlatConntrack::sweep(flowmon::Timestamp now) {
  std::size_t evicted = 0;
  for (std::size_t i = 0; i < live_.size();) {
    if (now - live_[i].last_activity >= idle_timeout_) {
      live_[i].record.end = live_[i].last_activity;
      destroy(i);  // the back entry moves into i: look at i again
      ++evicted;
    } else {
      ++i;
    }
  }
  return evicted;
}

void FlatConntrack::flush(flowmon::Timestamp now) {
  while (!live_.empty()) {
    live_.back().record.end = now;
    destroy(live_.size() - 1);
  }
}

}  // namespace nbv6::engine
