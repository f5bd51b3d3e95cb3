#include "net/prefix.h"

#include <cassert>

namespace nbv6::net {

IPv4Addr mask_to_length(IPv4Addr a, int length) {
  assert(length >= 0 && length <= 32);
  if (length == 0) return IPv4Addr(0);
  std::uint32_t mask = length == 32 ? ~0u : ~0u << (32 - length);
  return IPv4Addr(a.value() & mask);
}

IPv6Addr mask_to_length(const IPv6Addr& a, int length) {
  assert(length >= 0 && length <= 128);
  IPv6Addr::Bytes b = a.bytes();
  int full_bytes = length / 8;
  int rem = length % 8;
  if (rem != 0) {
    b[static_cast<size_t>(full_bytes)] &=
        static_cast<std::uint8_t>(0xff << (8 - rem));
    ++full_bytes;
  }
  for (size_t i = static_cast<size_t>(full_bytes); i < 16; ++i) b[i] = 0;
  return IPv6Addr(b);
}

Prefix4::Prefix4(IPv4Addr addr, int length)
    : addr_(mask_to_length(addr, length)), length_(length) {}

bool Prefix4::contains(IPv4Addr a) const {
  return mask_to_length(a, length_) == addr_;
}

Prefix6::Prefix6(IPv6Addr addr, int length)
    : addr_(mask_to_length(addr, length)), length_(length) {}

bool Prefix6::contains(const IPv6Addr& a) const {
  return mask_to_length(a, length_) == addr_;
}

}  // namespace nbv6::net
