// Flow records: what the residence router's monitor exports.
//
// One record per conntrack DESTROY event, carrying the 5-tuple, lifetime,
// and per-direction byte/packet counters (the nf_conntrack_acct data the
// paper's monitor reads, §3.1).
#pragma once

#include <cstdint>
#include <string>

#include "net/flow.h"

namespace nbv6::flowmon {

/// Seconds since simulation start, >= 0. FlowMonitor indexes its day and
/// hour series from time 0 and rejects records that start earlier.
using Timestamp = std::int64_t;

constexpr Timestamp kSecondsPerDay = 86400;
constexpr Timestamp kSecondsPerHour = 3600;

/// LAN-to-WAN vs LAN-to-LAN, the two scopes of Table 1.
enum class Scope : std::uint8_t { external, internal };

std::string_view to_string(Scope s);

struct FlowRecord {
  net::FlowKey key;
  Timestamp start = 0;
  Timestamp end = 0;
  /// Originator-to-responder ("out") and responder-to-originator ("in").
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t packets_out = 0;
  std::uint64_t packets_in = 0;
  Scope scope = Scope::external;

  [[nodiscard]] std::uint64_t total_bytes() const {
    return bytes_out + bytes_in;
  }
  [[nodiscard]] net::Family family() const { return key.family(); }
  [[nodiscard]] int day() const {
    return static_cast<int>(start / kSecondsPerDay);
  }
  [[nodiscard]] int hour_of_day() const {
    return static_cast<int>((start % kSecondsPerDay) / kSecondsPerHour);
  }
};

}  // namespace nbv6::flowmon
