#include "net/ip.h"

#include <gtest/gtest.h>

namespace nbv6::net {
namespace {

// ---------------------------------------------------------------- IPv4

TEST(IPv4Addr, ParsesDottedQuad) {
  auto a = IPv4Addr::parse("192.0.2.1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->value(), 0xC0000201u);
}

TEST(IPv4Addr, ParsesExtremes) {
  EXPECT_EQ(IPv4Addr::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(IPv4Addr::parse("255.255.255.255")->value(), 0xFFFFFFFFu);
}

TEST(IPv4Addr, RejectsMalformed) {
  EXPECT_FALSE(IPv4Addr::parse(""));
  EXPECT_FALSE(IPv4Addr::parse("1.2.3"));
  EXPECT_FALSE(IPv4Addr::parse("1.2.3.4.5"));
  EXPECT_FALSE(IPv4Addr::parse("256.0.0.1"));
  EXPECT_FALSE(IPv4Addr::parse("1.2.3.x"));
  EXPECT_FALSE(IPv4Addr::parse("1..2.3"));
  EXPECT_FALSE(IPv4Addr::parse("1.2.3.4 "));
  EXPECT_FALSE(IPv4Addr::parse(" 1.2.3.4"));
  EXPECT_FALSE(IPv4Addr::parse("1.2.3.1000"));
  EXPECT_FALSE(IPv4Addr::parse("-1.2.3.4"));
}

TEST(IPv4Addr, FormatsCanonically) {
  EXPECT_EQ(IPv4Addr(10, 0, 0, 1).to_string(), "10.0.0.1");
  EXPECT_EQ(IPv4Addr(255, 255, 255, 255).to_string(), "255.255.255.255");
}

TEST(IPv4Addr, OctetAccess) {
  IPv4Addr a(1, 2, 3, 4);
  EXPECT_EQ(a.octet(0), 1);
  EXPECT_EQ(a.octet(1), 2);
  EXPECT_EQ(a.octet(2), 3);
  EXPECT_EQ(a.octet(3), 4);
}

TEST(IPv4Addr, Ordering) {
  EXPECT_LT(IPv4Addr(1, 0, 0, 0), IPv4Addr(2, 0, 0, 0));
  EXPECT_EQ(IPv4Addr(9, 9, 9, 9), *IPv4Addr::parse("9.9.9.9"));
}

// A parameterized round-trip sweep over representative addresses.
class IPv4RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(IPv4RoundTrip, ParseFormatIdentity) {
  auto a = IPv4Addr::parse(GetParam());
  ASSERT_TRUE(a.has_value()) << GetParam();
  EXPECT_EQ(a->to_string(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Representative, IPv4RoundTrip,
                         ::testing::Values("0.0.0.0", "127.0.0.1", "8.8.8.8",
                                           "10.0.0.1", "172.16.254.3",
                                           "192.168.1.100", "203.0.113.9",
                                           "255.255.255.255", "1.2.3.4",
                                           "100.64.0.1"));

// ---------------------------------------------------------------- IPv6

TEST(IPv6Addr, ParsesFullForm) {
  auto a = IPv6Addr::parse("2001:0db8:0000:0000:0000:0000:0000:0001");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->group(0), 0x2001);
  EXPECT_EQ(a->group(1), 0x0db8);
  EXPECT_EQ(a->group(7), 0x0001);
}

TEST(IPv6Addr, ParsesCompressed) {
  auto a = IPv6Addr::parse("2001:db8::1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->group(0), 0x2001);
  EXPECT_EQ(a->group(1), 0x0db8);
  for (int i = 2; i < 7; ++i) EXPECT_EQ(a->group(i), 0) << i;
  EXPECT_EQ(a->group(7), 1);
}

TEST(IPv6Addr, ParsesLoopbackAndAny) {
  EXPECT_EQ(IPv6Addr::parse("::1")->low64(), 1u);
  EXPECT_EQ(IPv6Addr::parse("::")->low64(), 0u);
  EXPECT_EQ(IPv6Addr::parse("::")->high64(), 0u);
}

TEST(IPv6Addr, ParsesLeadingGap) {
  auto a = IPv6Addr::parse("::ffff:1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->group(6), 0xffff);
  EXPECT_EQ(a->group(7), 1);
}

TEST(IPv6Addr, ParsesTrailingGap) {
  auto a = IPv6Addr::parse("fe80::");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->group(0), 0xfe80);
  EXPECT_EQ(a->low64(), 0u);
}

TEST(IPv6Addr, ParsesEmbeddedIPv4) {
  auto a = IPv6Addr::parse("::ffff:192.0.2.1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->group(5), 0xffff);
  EXPECT_EQ(a->group(6), 0xc000);
  EXPECT_EQ(a->group(7), 0x0201);
}

TEST(IPv6Addr, RejectsMalformed) {
  EXPECT_FALSE(IPv6Addr::parse(""));
  EXPECT_FALSE(IPv6Addr::parse(":"));
  EXPECT_FALSE(IPv6Addr::parse(":::"));
  EXPECT_FALSE(IPv6Addr::parse("1:2:3:4:5:6:7"));        // too few
  EXPECT_FALSE(IPv6Addr::parse("1:2:3:4:5:6:7:8:9"));    // too many
  EXPECT_FALSE(IPv6Addr::parse("1::2::3"));              // double gap
  EXPECT_FALSE(IPv6Addr::parse("12345::"));              // group too long
  EXPECT_FALSE(IPv6Addr::parse("g::1"));                 // bad hex
  EXPECT_FALSE(IPv6Addr::parse("1:2:3:4:5:6:7:8::"));    // gap with 8 groups
  EXPECT_FALSE(IPv6Addr::parse("::ffff:300.0.2.1"));     // bad v4 tail
  EXPECT_FALSE(IPv6Addr::parse("1:"));                   // trailing colon
}

TEST(IPv6Addr, FormatsRfc5952) {
  // Longest zero run compressed; leftmost wins ties; lowercase hex.
  EXPECT_EQ(IPv6Addr::parse("2001:0db8:0:0:0:0:0:1")->to_string(),
            "2001:db8::1");
  EXPECT_EQ(IPv6Addr::parse("0:0:0:0:0:0:0:0")->to_string(), "::");
  EXPECT_EQ(IPv6Addr::parse("0:0:0:0:0:0:0:1")->to_string(), "::1");
  EXPECT_EQ(IPv6Addr::parse("2001:db8:0:1:1:1:1:1")->to_string(),
            "2001:db8:0:1:1:1:1:1");  // single zero group NOT compressed
  EXPECT_EQ(IPv6Addr::parse("2001:0:0:1:0:0:0:1")->to_string(),
            "2001:0:0:1::1");  // longest run wins
  EXPECT_EQ(IPv6Addr::parse("2001:0:0:1:0:0:1:1")->to_string(),
            "2001::1:0:0:1:1");  // leftmost wins ties
  EXPECT_EQ(IPv6Addr::parse("FE80::A")->to_string(), "fe80::a");
}

TEST(IPv6Addr, FromHalvesRoundTrip) {
  auto a = IPv6Addr::from_halves(0x20010db8'00000000ull, 0x1234ull);
  EXPECT_EQ(a.high64(), 0x20010db8'00000000ull);
  EXPECT_EQ(a.low64(), 0x1234ull);
  EXPECT_EQ(a.to_string(), "2001:db8::1234");
}

class IPv6RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(IPv6RoundTrip, ParseFormatIdentity) {
  auto a = IPv6Addr::parse(GetParam());
  ASSERT_TRUE(a.has_value()) << GetParam();
  EXPECT_EQ(a->to_string(), GetParam());
  // Round-trip again: formatting is a fixed point.
  auto b = IPv6Addr::parse(a->to_string());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
}

INSTANTIATE_TEST_SUITE_P(
    Representative, IPv6RoundTrip,
    ::testing::Values("::", "::1", "2001:db8::1", "fe80::1", "2600::",
                      "2001:db8:0:1:1:1:1:1", "2001:0:0:1::1",
                      "abcd:ef01:2345:6789:abcd:ef01:2345:6789",
                      "64:ff9b::c000:201", "2606:4700::6810:85e5"));

// ---------------------------------------------------------------- IpAddr

TEST(IpAddr, FamilyDispatch) {
  IpAddr a{IPv4Addr(1, 2, 3, 4)};
  IpAddr b{*IPv6Addr::parse("::1")};
  EXPECT_TRUE(a.is_v4());
  EXPECT_TRUE(b.is_v6());
  EXPECT_EQ(a.family(), Family::v4);
  EXPECT_EQ(b.family(), Family::v6);
  EXPECT_EQ(a.to_string(), "1.2.3.4");
  EXPECT_EQ(b.to_string(), "::1");
}

TEST(IpAddr, ParseEitherFamily) {
  EXPECT_TRUE(IpAddr::parse("10.1.1.1")->is_v4());
  EXPECT_TRUE(IpAddr::parse("2001:db8::")->is_v6());
  EXPECT_FALSE(IpAddr::parse("not-an-address"));
}

TEST(IpAddr, CrossFamilyOrderingV4First) {
  IpAddr v4{IPv4Addr(255, 255, 255, 255)};
  IpAddr v6{*IPv6Addr::parse("::")};
  EXPECT_LT(v4, v6);
  EXPECT_NE(v4, v6);
}

TEST(IpAddr, EqualitySameFamilyOnly) {
  IpAddr a{IPv4Addr(1, 1, 1, 1)};
  IpAddr b{IPv4Addr(1, 1, 1, 1)};
  IpAddr c{IPv4Addr(1, 1, 1, 2)};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(FamilyNames, ToString) {
  EXPECT_EQ(to_string(Family::v4), "IPv4");
  EXPECT_EQ(to_string(Family::v6), "IPv6");
}

}  // namespace
}  // namespace nbv6::net
