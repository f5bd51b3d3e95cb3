// FlowMonitor: the router-side aggregation the paper's measurement runs on.
//
// Fed by a MonitorSink (or a conntrack table it subscribes to), it
// incrementally maintains exactly the aggregates §3 reports on:
//   - per-(day, scope, family) byte and flow tallies (Table 1, Fig. 1),
//   - per-(hour, family) external tallies (the MSTL series of Fig. 2),
//   - per-destination-address external tallies (the AS- and domain-level
//     service analysis of §3.4, Figs. 3/4/17).
//
// Aggregation is streaming: the monitor never retains raw flow records,
// mirroring the privacy posture of the real deployment where only flow
// summaries leave the router.
//
// Storage is flat. The day and hour series are dense vectors indexed from
// time 0, sized to their last non-empty cell (a cell with no flows means
// "no traffic"), so `==` on two series compares contents. Destinations
// live in an open-addressing table: a dense entries vector plus a
// power-of-two slot array, the interning pattern of dns::ZoneDb.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "flowmon/conntrack.h"
#include "flowmon/flow_record.h"
#include "net/ip.h"

namespace nbv6::flowmon {

/// Byte and flow counters for one (family) cell.
struct Tally {
  std::uint64_t bytes = 0;
  std::uint64_t flows = 0;

  Tally& operator+=(const Tally& o) {
    bytes += o.bytes;
    flows += o.flows;
    return *this;
  }

  friend bool operator==(const Tally&, const Tally&) = default;
};

/// v4/v6 split of a tally with the fraction helpers every table needs.
struct FamilySplit {
  Tally v4;
  Tally v6;

  [[nodiscard]] std::uint64_t total_bytes() const { return v4.bytes + v6.bytes; }
  [[nodiscard]] std::uint64_t total_flows() const { return v4.flows + v6.flows; }
  /// Fraction of bytes that are IPv6; nullopt-like -1 when no traffic.
  [[nodiscard]] double v6_byte_fraction() const {
    auto t = total_bytes();
    return t == 0 ? -1.0 : static_cast<double>(v6.bytes) / static_cast<double>(t);
  }
  [[nodiscard]] double v6_flow_fraction() const {
    auto t = total_flows();
    return t == 0 ? -1.0 : static_cast<double>(v6.flows) / static_cast<double>(t);
  }

  FamilySplit& operator+=(const FamilySplit& o) {
    v4 += o.v4;
    v6 += o.v6;
    return *this;
  }

  friend bool operator==(const FamilySplit&, const FamilySplit&) = default;
};

/// Per-destination tally; family is implied by the address.
struct DestTally {
  net::IpAddr addr;
  Tally tally;

  friend bool operator==(const DestTally& a, const DestTally& b) {
    return a.addr == b.addr && a.tally == b.tally;
  }
};

class FlowMonitor {
 public:
  /// Subscribe this monitor to a conntrack-shaped table
  /// (engine::FlatConntrack, ...); a monitor never attached is a pure
  /// reduction target for merge(). The table must not outlive the monitor,
  /// and the monitor must not be moved while attached (the listener holds
  /// a pointer to it); moving it *after* the table is gone is fine. Kept
  /// for the conntrack tests and perfbench only: fleets use MonitorSink.
  template <typename Table>
  void attach(Table& table) {
    table.subscribe(make_listener());
  }

  /// Fold another monitor's aggregates into this one. Associative and
  /// commutative over the counter state (all sums), so any reduction tree
  /// over shard monitors yields bit-identical totals/daily/hourly views.
  void merge(const FlowMonitor& other);

  // --- aggregate views -----------------------------------------------

  /// Overall totals for one scope.
  [[nodiscard]] const FamilySplit& totals(Scope s) const {
    return totals_[index(s)];
  }

  /// Day-indexed series for one scope: element d is day d; a cell with
  /// total_flows() == 0 saw no traffic. Empty, or its last cell is
  /// non-empty.
  [[nodiscard]] const std::vector<FamilySplit>& daily(Scope s) const {
    return daily_[index(s)];
  }

  /// Daily IPv6 fractions for one scope, skipping empty days. `by_bytes`
  /// selects byte- vs flow-fractions. This is the Figure 1 series and the
  /// "daily mean (s.d.)" column of Table 1.
  [[nodiscard]] std::vector<double> daily_v6_fractions(Scope s,
                                                       bool by_bytes) const;

  /// Hour-indexed external series (element h = hour h since time 0), in
  /// the same dense form as daily().
  [[nodiscard]] const std::vector<FamilySplit>& hourly_external() const {
    return hourly_external_;
  }

  /// Hourly external IPv6 fraction series over [first, last] non-empty hours,
  /// with gaps filled by carrying the previous value (MSTL needs a regular
  /// series). Empty when no external traffic.
  [[nodiscard]] std::vector<double> hourly_v6_fraction_series(
      bool by_bytes) const;

  /// Per-destination external tallies, sorted ascending by address.
  [[nodiscard]] std::vector<DestTally> destination_tallies() const;

  /// Total external traffic bytes (both families).
  [[nodiscard]] std::uint64_t external_bytes() const {
    return totals(Scope::external).total_bytes();
  }

  [[nodiscard]] std::uint64_t new_events() const { return new_events_; }
  [[nodiscard]] std::uint64_t destroy_events() const { return destroy_events_; }

 private:
  friend class MonitorSink;

  static size_t index(Scope s) { return s == Scope::external ? 0 : 1; }
  ConntrackListener make_listener();
  /// Hourly and destination tallies go to `tallies`, the rest here. Throws
  /// std::out_of_range for a record starting before time 0, before touching
  /// any counter.
  void ingest(const FlowRecord& r, FlowMonitor& tallies);
  /// The destination's tally, inserted as zero on first sight.
  Tally& dest_tally(const net::IpAddr& addr);
  /// Rebuild dest_slots_ at `cap` slots (a power of two).
  void rehash_dest_slots(std::size_t cap);

  std::array<FamilySplit, 2> totals_{};
  std::array<std::vector<FamilySplit>, 2> daily_{};
  std::vector<FamilySplit> hourly_external_;
  std::vector<DestTally> dests_;  ///< insertion order
  /// Power-of-two probe table of dests_ indices + 1; 0 = empty slot.
  std::vector<std::uint32_t> dest_slots_;
  std::uint64_t new_events_ = 0;
  std::uint64_t destroy_events_ = 0;
};

/// The generator's sink for fleet shards: each finished flow is ingested,
/// then counted as one NEW and one DESTROY event, as an attached conntrack
/// table would count it. Packets are not counted (no view reads them).
/// Hourly and destination tallies go to `tallies`, the rest to `monitor`;
/// both outlive the sink and may be the same monitor.
class MonitorSink {
 public:
  MonitorSink(FlowMonitor& monitor, FlowMonitor& tallies)
      : monitor_(&monitor), tallies_(&tallies) {}

  /// Throws std::out_of_range for a record starting before time 0, and
  /// then changes no counter.
  void add(const FlowRecord& r);

 private:
  FlowMonitor* monitor_;
  FlowMonitor* tallies_;
};

}  // namespace nbv6::flowmon
