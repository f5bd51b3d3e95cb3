// ReferenceConntrack: a std::unordered_map conntrack table, kept as the
// behavioural reference engine::FlatConntrack is tested against:
// flowmon_test runs both through one typed suite, conntrack_churn_test
// diffs them under churn, and engine_test replays a simulated residence's
// flow stream into both.
// Semantics: NEW on open, DESTROY with the final counters on close, sweep
// and flush; account() opens unknown keys implicitly (mid-stream pickup).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flowmon/conntrack.h"
#include "flowmon/flow_record.h"
#include "net/flow.h"

namespace nbv6::testutil {

class ReferenceConntrack {
 public:
  using Timestamp = flowmon::Timestamp;

  /// `idle_timeout` in seconds: flows with no activity for this long are
  /// evicted on the next sweep, as real conntrack does.
  explicit ReferenceConntrack(Timestamp idle_timeout = 600)
      : idle_timeout_(idle_timeout) {}

  void subscribe(flowmon::ConntrackListener listener) {
    listeners_.push_back(std::move(listener));
  }

  /// Opening an existing live flow is a no-op (no second NEW).
  void open(const net::FlowKey& key, Timestamp now, flowmon::Scope scope) {
    auto [it, inserted] = live_.try_emplace(key);
    if (!inserted) return;
    it->second.record.key = key;
    it->second.record.start = now;
    it->second.record.scope = scope;
    it->second.last_activity = now;
    for (const auto& l : listeners_)
      if (l.on_new) l.on_new(key, now);
  }

  /// Returns false if the key had to be implicitly opened.
  bool account(const net::FlowKey& key, Timestamp now, std::uint64_t bytes_out,
               std::uint64_t bytes_in, std::uint64_t pkts_out = 0,
               std::uint64_t pkts_in = 0,
               flowmon::Scope scope = flowmon::Scope::external) {
    auto it = live_.find(key);
    const bool known = it != live_.end();
    if (!known) {
      open(key, now, scope);
      it = live_.find(key);
    }
    auto& rec = it->second.record;
    rec.bytes_out += bytes_out;
    rec.bytes_in += bytes_in;
    // Unmodelled packets: one per 1400 bytes (full-ish MTU).
    rec.packets_out += pkts_out > 0 ? pkts_out : (bytes_out + 1399) / 1400;
    rec.packets_in += pkts_in > 0 ? pkts_in : (bytes_in + 1399) / 1400;
    it->second.last_activity = now;
    return known;
  }

  /// Close a flow now, emitting DESTROY. Returns false if unknown.
  bool close(const net::FlowKey& key, Timestamp now) {
    auto it = live_.find(key);
    if (it == live_.end()) return false;
    it->second.record.end = now;
    emit_destroy(it->second.record);
    live_.erase(it);
    return true;
  }

  /// Evict flows idle past the timeout. Returns number evicted.
  std::size_t sweep(Timestamp now) {
    std::size_t evicted = 0;
    for (auto it = live_.begin(); it != live_.end();) {
      if (now - it->second.last_activity >= idle_timeout_) {
        it->second.record.end = it->second.last_activity;
        emit_destroy(it->second.record);
        it = live_.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
    return evicted;
  }

  /// Close everything (end of capture).
  void flush(Timestamp now) {
    for (auto& [key, live] : live_) {
      live.record.end = now;
      emit_destroy(live.record);
    }
    live_.clear();
  }

  [[nodiscard]] std::size_t live_count() const { return live_.size(); }

 private:
  struct Live {
    flowmon::FlowRecord record;
    Timestamp last_activity = 0;
  };

  void emit_destroy(const flowmon::FlowRecord& r) {
    for (const auto& l : listeners_)
      if (l.on_destroy) l.on_destroy(r);
  }

  Timestamp idle_timeout_;
  std::unordered_map<net::FlowKey, Live, net::FlowKeyHash> live_;
  std::vector<flowmon::ConntrackListener> listeners_;
};

}  // namespace nbv6::testutil
