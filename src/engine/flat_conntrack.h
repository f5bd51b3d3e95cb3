// FlatConntrack: the flow-ingest hot-path conntrack table.
//
// NEW on open, DESTROY with final counters on close/sweep/flush, delivered
// to flowmon::ConntrackListener subscribers. The live-flow store is an
// open-addressing flat table instead of std::unordered_map:
//
//   - keyed by the fused 5-tuple hash (net::fused_flow_hash), computed once
//     per operation instead of per probe,
//   - linear probing over a power-of-two slot array with backward-shift
//     deletion (no tombstones, probe chains stay short under churn),
//   - account() resolves find-or-insert in a single probe sequence where
//     an unordered_map table pays up to three lookups.
//
// Every fleet shard owns one of these. The unordered_map table it
// replaced is the behavioural reference in the tests
// (tests/reference_conntrack.h; tests/flowmon_test.cpp runs both through
// one typed suite).
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
  explicit FlatConntrack(flowmon::Timestamp idle_timeout = 600,
                         std::size_t initial_capacity = 64);

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

  /// Evict flows idle past the timeout. Returns number evicted.
  std::size_t sweep(flowmon::Timestamp now);

  /// Close everything (end of capture).
  void flush(flowmon::Timestamp now);

  [[nodiscard]] std::size_t live_count() const { return live_; }

 private:
  struct Slot {
    std::uint64_t hash = 0;  ///< 0 = empty (fused_flow_hash never yields 0)
    flowmon::FlowRecord record;
    flowmon::Timestamp last_activity = 0;
  };

  /// True when the memoized hot slot currently holds `key`.
  [[nodiscard]] bool hot_hit(const net::FlowKey& key) const;
  /// Find the slot holding `key`, or the empty slot where it would be
  /// inserted. `hash` must be fused_flow_hash(key).
  [[nodiscard]] std::size_t probe(const net::FlowKey& key,
                                  std::uint64_t hash) const;
  /// Insert into a probed empty slot, growing (and re-probing) if needed.
  Slot& insert_at(std::size_t idx, const net::FlowKey& key,
                  std::uint64_t hash, flowmon::Timestamp now,
                  flowmon::Scope scope);
  /// Backward-shift removal keeping probe chains intact.
  void erase_slot(std::size_t idx);
  void grow();
  void emit_new(const net::FlowKey& key, flowmon::Timestamp now);
  void emit_destroy(const flowmon::FlowRecord& r);

  flowmon::Timestamp idle_timeout_;
  std::vector<Slot> slots_;
  /// Most recently touched slot. Flow events arrive in per-flow bursts
  /// (open → account… → close on one key), so checking this slot first
  /// skips the hash + probe walk for the common consecutive-hit case. The
  /// memo is only ever trusted after a full key comparison, so a stale
  /// index (rehash, backward shift) degrades to the normal probe.
  std::size_t hot_idx_ = 0;
  std::size_t live_ = 0;
  std::vector<flowmon::ConntrackListener> listeners_;
  std::vector<flowmon::FlowRecord> sweep_scratch_;
};

}  // namespace nbv6::engine
