// Flow identification: the 5-tuple the residence monitor keys on.
//
// Mirrors what the paper's OpenWRT conntrack monitor records (§3.1): protocol
// (TCP, UDP, or ICMP), source and destination addresses and ports, and for
// ICMP the type/code/id triple instead of ports.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "net/ip.h"

namespace nbv6::net {

enum class Protocol : std::uint8_t { tcp = 6, udp = 17, icmp = 1 };

std::string_view to_string(Protocol p);

/// A connection-tracking key. For TCP/UDP, `src_port`/`dst_port` are the
/// transport ports; for ICMP they carry type/code and the echo identifier
/// respectively, matching how conntrack disambiguates ICMP "flows".
struct FlowKey {
  Protocol protocol = Protocol::tcp;
  IpAddr src;
  IpAddr dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  [[nodiscard]] Family family() const { return src.family(); }
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
  friend std::strong_ordering operator<=>(const FlowKey& a, const FlowKey& b);
};

/// Fused 5-tuple hash: the whole key is folded through three (IPv4) or
/// five (IPv6) 128-bit multiply-fold rounds instead of a per-byte loop.
/// Never returns 0. FlowKeyHash delegates to it, and perfbench's
/// firehose_stream workload digests the flow stream with it.
std::uint64_t fused_flow_hash(const FlowKey& k) noexcept;

/// Hash for unordered containers keyed by FlowKey (the tests' reference
/// conntrack table). Delegates to fused_flow_hash.
struct FlowKeyHash {
  size_t operator()(const FlowKey& k) const noexcept {
    return static_cast<size_t>(fused_flow_hash(k));
  }
};

}  // namespace nbv6::net
