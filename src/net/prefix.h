// CIDR prefixes for both families.
//
// A prefix is stored normalized: bits past the prefix length are zero, so
// equal prefixes compare equal regardless of how they were constructed.
// Prefixes are the key type of the AS map (net/asn.h) and the unit of
// allocation in the synthetic address plan.
#pragma once

#include "net/ip.h"

namespace nbv6::net {

/// An IPv4 CIDR prefix, e.g. 192.0.2.0/24.
class Prefix4 {
 public:
  constexpr Prefix4() = default;

  /// Construct, zeroing host bits. `length` must be in [0, 32].
  Prefix4(IPv4Addr addr, int length);

  [[nodiscard]] IPv4Addr address() const { return addr_; }
  [[nodiscard]] int length() const { return length_; }
  [[nodiscard]] bool contains(IPv4Addr a) const;

  friend constexpr auto operator<=>(const Prefix4&, const Prefix4&) = default;

 private:
  IPv4Addr addr_{};
  int length_ = 0;
};

/// An IPv6 CIDR prefix, e.g. 2001:db8::/32.
class Prefix6 {
 public:
  Prefix6() = default;
  Prefix6(IPv6Addr addr, int length);

  [[nodiscard]] const IPv6Addr& address() const { return addr_; }
  [[nodiscard]] int length() const { return length_; }
  [[nodiscard]] bool contains(const IPv6Addr& a) const;

  friend auto operator<=>(const Prefix6&, const Prefix6&) = default;

 private:
  IPv6Addr addr_{};
  int length_ = 0;
};

/// Zero all bits of `a` past the first `length` bits.
IPv4Addr mask_to_length(IPv4Addr a, int length);
IPv6Addr mask_to_length(const IPv6Addr& a, int length);

}  // namespace nbv6::net
