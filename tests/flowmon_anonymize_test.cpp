#include <gtest/gtest.h>

#include "flowmon/anonymize.h"
#include "net/asn.h"

namespace nbv6::flowmon {
namespace {

net::CryptoPan::Secret secret() {
  net::CryptoPan::Secret s{};
  for (size_t i = 0; i < s.size(); ++i) s[i] = static_cast<std::uint8_t>(i * 3);
  return s;
}

FlowRecord sample_record(bool v6 = false) {
  FlowRecord r;
  r.key.protocol = net::Protocol::tcp;
  if (v6) {
    r.key.src = *net::IPv6Addr::parse("2600:8800:1::10");
    r.key.dst = *net::IPv6Addr::parse("2600:1::77");
  } else {
    r.key.src = net::IPv4Addr(192, 168, 1, 10);
    r.key.dst = net::IPv4Addr(20, 3, 4, 5);
  }
  r.key.src_port = 43210;
  r.key.dst_port = 443;
  r.start = 100;
  r.end = 125;
  r.bytes_out = 1234;
  r.bytes_in = 567890;
  r.packets_out = 10;
  r.packets_in = 400;
  r.scope = Scope::external;
  return r;
}

TEST(Anonymize, PaperPolicyAppliedToBothEndpoints) {
  net::CryptoPan cpan(secret());
  auto r = sample_record(false);
  auto anon = anonymize(r, cpan);
  // Top 24 bits survive, counters untouched.
  EXPECT_EQ(anon.key.src.v4().value() >> 8, r.key.src.v4().value() >> 8);
  EXPECT_EQ(anon.key.dst.v4().value() >> 8, r.key.dst.v4().value() >> 8);
  EXPECT_EQ(anon.bytes_in, r.bytes_in);
  EXPECT_EQ(anon.key.src_port, r.key.src_port);
}

TEST(Anonymize, V6KeepsPrefix) {
  net::CryptoPan cpan(secret());
  auto r = sample_record(true);
  auto anon = anonymize(r, cpan);
  EXPECT_EQ(anon.key.src.v6().high64(), r.key.src.v6().high64());
  EXPECT_NE(anon.key.src.v6().low64(), r.key.src.v6().low64());
}

// End-to-end: anonymized logs still support prefix-level (AS) analysis —
// the whole point of prefix preservation.
TEST(Anonymize, AnonymizedLogsPreserveAsAttribution) {
  net::CryptoPan cpan(secret());
  net::AsMap as_map;
  as_map.announce(net::Prefix4(net::IPv4Addr(20, 3, 0, 0), 16), 64500);

  auto r = sample_record(false);
  auto anon = anonymize(r, cpan);
  auto asn_before = as_map.lookup(r.key.dst);
  auto asn_after = as_map.lookup(anon.key.dst);
  ASSERT_TRUE(asn_before && asn_after);
  EXPECT_EQ(*asn_before, *asn_after);  // /16 attribution survives /24-safe scramble
}

}  // namespace
}  // namespace nbv6::flowmon
