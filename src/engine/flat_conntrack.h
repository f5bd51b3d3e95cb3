// FlatConntrack: a conntrack table with listeners. Fleet shards and the
// firehose do not use it (the generator hands finished flows to
// flowmon::MonitorSink or engine::FlowEventBuffer); it is kept only for the
// conntrack tests, its churn microbenchmark and perfbench's split.
//
// NEW on open, DESTROY with final counters on close/sweep/flush, delivered
// to flowmon::ConntrackListener subscribers. The live flows sit in a short
// vector, found by a linear key scan and removed by swapping with the back
// entry. As the generator's sink, add() opens, accounts and closes each
// flow in turn, so no flow stays live between calls.
// tests/reference_conntrack.h is its behavioural reference.
#pragma once

#include <cstdint>
#include <vector>

#include "flowmon/conntrack.h"
#include "flowmon/flow_record.h"
#include "net/flow.h"

namespace nbv6::engine {

class FlatConntrack {
 public:
  /// `idle_timeout` in seconds: flows with no activity for this long are
  /// evicted on the next sweep, as real conntrack does.
  explicit FlatConntrack(flowmon::Timestamp idle_timeout = 600)
      : idle_timeout_(idle_timeout) {}

  void subscribe(flowmon::ConntrackListener listener) {
    listeners_.push_back(std::move(listener));
  }

  /// Open a flow. Opening an existing live flow is a no-op.
  void open(const net::FlowKey& key, flowmon::Timestamp now,
            flowmon::Scope scope);

  /// Account traffic, implicitly opening unknown keys (mid-stream pickup).
  /// Returns false if the key had to be implicitly opened.
  bool account(const net::FlowKey& key, flowmon::Timestamp now,
               std::uint64_t bytes_out, std::uint64_t bytes_in,
               std::uint64_t pkts_out = 0, std::uint64_t pkts_in = 0,
               flowmon::Scope scope = flowmon::Scope::external);

  /// Close a flow now, emitting DESTROY. Returns false if unknown.
  bool close(const net::FlowKey& key, flowmon::Timestamp now);

  /// A finished flow, as the generator hands it over: open, account (packets
  /// estimated from bytes when the record has none) and close.
  void add(const flowmon::FlowRecord& r) {
    open(r.key, r.start, r.scope);
    account(r.key, r.start, r.bytes_out, r.bytes_in, r.packets_out,
            r.packets_in, r.scope);
    close(r.key, r.end);
  }

  /// Evict flows idle past the timeout. Returns number evicted.
  std::size_t sweep(flowmon::Timestamp now);

  /// Close everything (end of capture).
  void flush(flowmon::Timestamp now);

  [[nodiscard]] std::size_t live_count() const { return live_.size(); }

 private:
  struct Live {
    flowmon::FlowRecord record;
    flowmon::Timestamp last_activity = 0;
  };

  /// Index of `key` in live_, or live_.size() when it is not live.
  [[nodiscard]] std::size_t find(const net::FlowKey& key) const;
  /// Append a new live flow and emit NEW.
  Live& insert(const net::FlowKey& key, flowmon::Timestamp now,
               flowmon::Scope scope);
  /// Emit DESTROY for live_[idx] and remove it (swap with the back entry).
  void destroy(std::size_t idx);

  flowmon::Timestamp idle_timeout_;
  std::vector<Live> live_;
  std::vector<flowmon::ConntrackListener> listeners_;
};

}  // namespace nbv6::engine
