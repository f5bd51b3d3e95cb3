// Firehose: streaming flow emission for whole fleets.
//
// The batch pipeline simulates residences to completion and reduces
// aggregate monitors; nothing downstream ever sees an individual flow in
// time order. The firehose inverts that: it drives every fleet lane
// day-by-day, captures each generated flow with its (day, tick)
// coordinates, and streams the records to a sink callback in a canonical
// global order — tick-major, then residence index, then generation order.
// That order is a pure function of the scenario (seed, horizon, arrival
// config), so the emitted stream is byte-identical for any lane count:
// the same replay guarantee the batch goldens pin, extended to a flow
// stream a downstream consumer (exporter, ingest daemon, backpressure
// experiment) could tap live.
//
// Throughput of this path (flows/s at N and 1 lanes) is measured end to
// end by the perfbench `firehose_stream` workload; bench/firehose_throughput
// is the quick standalone run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "engine/fleet.h"
#include "engine/thread_pool.h"
#include "flowmon/flow_record.h"
#include "net/flow.h"

namespace nbv6::engine {

/// One generated flow as the firehose emits it.
struct FlowEvent {
  std::uint32_t residence = 0;  ///< residence index in the sampled fleet
  std::int32_t day = 0;         ///< simulated day the flow was generated in
  /// Slot of the day the flow was generated in: the hour (batch mode) or
  /// the open-loop tick (day * ticks_per_day + tick_of_day ordering is the
  /// emission order).
  std::int32_t tick = 0;
  flowmon::Timestamp start = 0;  ///< open timestamp (seconds since day 0)
  flowmon::Timestamp end = 0;    ///< close timestamp
  net::FlowKey key;
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
  flowmon::Scope scope = flowmon::Scope::external;
};

/// A generator sink that records finished flows: `add` appends one
/// FlowEvent stamped with the coordinates of the latest `advance(day, tick)`
/// (the generator's optional per-slot hook). Records accumulate until
/// clear(); Firehose drains per day.
class FlowEventBuffer {
 public:
  void advance(int day, int tick) {
    day_ = day;
    tick_ = tick;
  }
  void add(const flowmon::FlowRecord& r) {
    events_.push_back({.day = day_,
                       .tick = tick_,
                       .start = r.start,
                       .end = r.end,
                       .key = r.key,
                       .bytes_out = r.bytes_out,
                       .bytes_in = r.bytes_in,
                       .scope = r.scope});
  }

  [[nodiscard]] std::vector<FlowEvent>& events() { return events_; }
  [[nodiscard]] const std::vector<FlowEvent>& events() const {
    return events_;
  }
  void clear() { events_.clear(); }

 private:
  std::vector<FlowEvent> events_;
  int day_ = 0;
  int tick_ = 0;
};

class Firehose {
 public:
  /// Receives every emitted flow, in the canonical stream order.
  using Sink = std::function<void(const FlowEvent&)>;

  struct Result {
    std::uint64_t flows = 0;  ///< records handed to the sink
    int lanes = 1;            ///< worker lanes the run used
    /// Generator counters summed across the fleet — identical to what the
    /// batch engine's FleetResult::totals reports for the same scenario.
    traffic::SimulationStats totals;
  };

  /// `threads` worker lanes, resolved by engine::resolve_lanes: 0 selects
  /// hardware concurrency, 1 is the sequential reference; anything outside
  /// [0, kMaxLanes] throws std::invalid_argument. Never changes the stream.
  explicit Firehose(const traffic::ServiceCatalog& catalog, int threads = 0);

  /// Sample + timeline the scenario (engine/run_spec.h), then drive the
  /// fleet day by day, streaming every flow to `sink` in the canonical
  /// (day, tick, residence, generation) order. Lanes parallelize within
  /// each day; emission happens on the calling thread, so the sink needs no
  /// locking and sees a lane-count-invariant stream.
  Result run(const FleetConfig& cfg, const Sink& sink);

  [[nodiscard]] int lanes() const { return lanes_; }

 private:
  const traffic::ServiceCatalog* catalog_;
  int lanes_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace nbv6::engine
