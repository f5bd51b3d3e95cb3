// IPv4 and IPv6 address value types.
//
// These are the foundation of the whole library: flow records, DNS answers,
// BGP prefixes, and anonymization all traffic in these types. Both types are
// small trivially-copyable values with total ordering so they can key maps.
//
// Formatting follows RFC 5952 for IPv6 (lowercase hex, longest zero run
// compressed, no leading zeros) and dotted-quad for IPv4. Parsing accepts
// every textual form RFC 4291 defines, including "::" compression and
// embedded dotted-quad tails ("::ffff:192.0.2.1").
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace nbv6::net {

/// Address family discriminator used across the library.
enum class Family : std::uint8_t { v4 = 4, v6 = 6 };

/// Human-readable name ("IPv4" / "IPv6").
std::string_view to_string(Family f);

/// An IPv4 address stored in host byte order.
class IPv4Addr {
 public:
  constexpr IPv4Addr() = default;
  constexpr explicit IPv4Addr(std::uint32_t host_order) : value_(host_order) {}
  constexpr IPv4Addr(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                     std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  /// Parse dotted-quad text. Returns nullopt on any malformed input
  /// (empty, out-of-range octet, stray characters, too few/many octets).
  static std::optional<IPv4Addr> parse(std::string_view text);

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] std::string to_string() const;

  /// Octet i, with octet 0 the most significant ("a" in a.b.c.d).
  [[nodiscard]] constexpr std::uint8_t octet(int i) const {
    return static_cast<std::uint8_t>(value_ >> (8 * (3 - i)));
  }

  friend constexpr auto operator<=>(IPv4Addr, IPv4Addr) = default;

 private:
  std::uint32_t value_ = 0;
};

/// An IPv6 address stored as 16 network-order bytes.
class IPv6Addr {
 public:
  using Bytes = std::array<std::uint8_t, 16>;

  constexpr IPv6Addr() = default;
  constexpr explicit IPv6Addr(const Bytes& b) : bytes_(b) {}

  /// Construct from eight 16-bit groups (the textual grouping).
  static IPv6Addr from_groups(const std::array<std::uint16_t, 8>& groups);

  /// Construct from high and low 64-bit halves (host order). Convenient for
  /// synthetic address construction: high = routing prefix + subnet,
  /// low = interface identifier.
  static IPv6Addr from_halves(std::uint64_t hi, std::uint64_t lo);

  /// Parse RFC 4291 text: full form, "::" compression, embedded IPv4 tail.
  static std::optional<IPv6Addr> parse(std::string_view text);

  [[nodiscard]] const Bytes& bytes() const { return bytes_; }
  [[nodiscard]] std::uint16_t group(int i) const {
    return static_cast<std::uint16_t>((bytes_[2 * i] << 8) | bytes_[2 * i + 1]);
  }
  [[nodiscard]] std::uint64_t high64() const;
  [[nodiscard]] std::uint64_t low64() const;

  /// RFC 5952 canonical text.
  [[nodiscard]] std::string to_string() const;

  friend auto operator<=>(const IPv6Addr&, const IPv6Addr&) = default;

 private:
  Bytes bytes_{};
};

/// A tagged union of the two address families.
///
/// Most of the measurement pipeline is family-agnostic (a flow endpoint, a
/// DNS answer), so this small discriminated value avoids templating the
/// world on the family.
class IpAddr {
 public:
  constexpr IpAddr() : family_(Family::v4), v4_() {}
  constexpr IpAddr(IPv4Addr a) : family_(Family::v4), v4_(a) {}  // NOLINT: implicit by design
  constexpr IpAddr(IPv6Addr a) : family_(Family::v6), v6_(a) {}  // NOLINT: implicit by design

  /// Parse either family; tries IPv4 first, then IPv6.
  static std::optional<IpAddr> parse(std::string_view text);

  [[nodiscard]] constexpr Family family() const { return family_; }
  [[nodiscard]] constexpr bool is_v4() const { return family_ == Family::v4; }
  [[nodiscard]] constexpr bool is_v6() const { return family_ == Family::v6; }

  /// Preconditions: matching family. Checked in debug builds.
  [[nodiscard]] IPv4Addr v4() const;
  [[nodiscard]] IPv6Addr v6() const;

  [[nodiscard]] std::string to_string() const;

  // Inline: address equality sits inside every conntrack probe's key
  // comparison, the hottest compare in the flow-ingest path.
  friend bool operator==(const IpAddr& a, const IpAddr& b) {
    if (a.family_ != b.family_) return false;
    return a.family_ == Family::v4 ? a.v4_ == b.v4_ : a.v6_ == b.v6_;
  }
  friend std::strong_ordering operator<=>(const IpAddr& a, const IpAddr& b);

 private:
  Family family_;
  // Not a std::variant: both members are trivial and tiny, and keeping the
  // layout flat keeps IpAddr trivially copyable.
  IPv4Addr v4_{};
  IPv6Addr v6_{};
};

}  // namespace nbv6::net
