#include <gtest/gtest.h>

#include "net/aes.h"
#include "net/cryptopan.h"
#include "stats/rng.h"

namespace nbv6::net {
namespace {

Aes128::Block hex_block(const char* hex) {
  Aes128::Block b{};
  for (int i = 0; i < 16; ++i) {
    auto nib = [&](char c) -> std::uint8_t {
      if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0');
      return static_cast<std::uint8_t>(c - 'a' + 10);
    };
    b[static_cast<size_t>(i)] = static_cast<std::uint8_t>(
        (nib(hex[2 * i]) << 4) | nib(hex[2 * i + 1]));
  }
  return b;
}

// FIPS-197 Appendix B: the canonical AES-128 example.
TEST(Aes128, Fips197AppendixB) {
  Aes128 aes(hex_block("2b7e151628aed2a6abf7158809cf4f3c"));
  auto ct = aes.encrypt(hex_block("3243f6a8885a308d313198a2e0370734"));
  EXPECT_EQ(ct, hex_block("3925841d02dc09fbdc118597196a0b32"));
}

// FIPS-197 Appendix C.1: sequential key/plaintext vector.
TEST(Aes128, Fips197AppendixC1) {
  Aes128 aes(hex_block("000102030405060708090a0b0c0d0e0f"));
  auto ct = aes.encrypt(hex_block("00112233445566778899aabbccddeeff"));
  EXPECT_EQ(ct, hex_block("69c4e0d86a7b0430d8cdb78070b4c55a"));
}

// NIST SP 800-38A ECB-AES128 vector #1.
TEST(Aes128, Sp80038aEcbVector) {
  Aes128 aes(hex_block("2b7e151628aed2a6abf7158809cf4f3c"));
  auto ct = aes.encrypt(hex_block("6bc1bee22e409f96e93d7e117393172a"));
  EXPECT_EQ(ct, hex_block("3ad77bb40d7a3660a89ecaf32466ef97"));
}

TEST(Aes128, Deterministic) {
  Aes128 aes(hex_block("000102030405060708090a0b0c0d0e0f"));
  auto a = aes.encrypt(hex_block("00000000000000000000000000000000"));
  auto b = aes.encrypt(hex_block("00000000000000000000000000000000"));
  EXPECT_EQ(a, b);
}

TEST(Aes128, KeySensitivity) {
  Aes128 a(hex_block("000102030405060708090a0b0c0d0e0f"));
  Aes128 b(hex_block("010102030405060708090a0b0c0d0e0f"));
  auto pt = hex_block("00112233445566778899aabbccddeeff");
  EXPECT_NE(a.encrypt(pt), b.encrypt(pt));
}

// ------------------------------------------------------------ CryptoPAN

CryptoPan::Secret test_secret(std::uint8_t fill = 0x5a) {
  CryptoPan::Secret s{};
  for (size_t i = 0; i < s.size(); ++i)
    s[i] = static_cast<std::uint8_t>(fill + i);
  return s;
}

TEST(CryptoPan, Deterministic) {
  CryptoPan cp(test_secret());
  auto a = IPv4Addr(192, 0, 2, 77);
  EXPECT_EQ(cp.anonymize(a).value(), cp.anonymize(a).value());
}

TEST(CryptoPan, DifferentKeysDiffer) {
  CryptoPan cp1(test_secret(0x11));
  CryptoPan cp2(test_secret(0x22));
  auto a = IPv4Addr(192, 0, 2, 77);
  EXPECT_NE(cp1.anonymize(a).value(), cp2.anonymize(a).value());
}

TEST(CryptoPan, PaperPolicyPreservesV4Top24Bits) {
  CryptoPan cp(test_secret());
  auto a = IPv4Addr(203, 0, 113, 200);
  auto anon = cp.anonymize_paper_policy(IpAddr{a});
  ASSERT_TRUE(anon.is_v4());
  EXPECT_EQ(anon.v4().value() >> 8, a.value() >> 8);
}

TEST(CryptoPan, PaperPolicyPreservesV6Top64Bits) {
  CryptoPan cp(test_secret());
  auto a = *IPv6Addr::parse("2001:db8:1:2:3:4:5:6");
  auto anon = cp.anonymize_paper_policy(IpAddr{a});
  ASSERT_TRUE(anon.is_v6());
  EXPECT_EQ(anon.v6().high64(), a.high64());
  EXPECT_NE(anon.v6().low64(), a.low64());  // with overwhelming probability
}

// The defining property: shared k-bit prefixes stay shared exactly.
class CryptoPanPrefixProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CryptoPanPrefixProperty, V4FullAnonymizationPreservesPrefixes) {
  CryptoPan cp(test_secret());
  stats::Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    auto a = IPv4Addr(static_cast<std::uint32_t>(rng()));
    auto b = IPv4Addr(static_cast<std::uint32_t>(rng()));
    auto ea = cp.anonymize(a).value();
    auto eb = cp.anonymize(b).value();
    std::uint32_t xor_in = a.value() ^ b.value();
    std::uint32_t xor_out = ea ^ eb;
    // Leading zero count of the XOR equals the shared prefix length, which
    // must be identical before and after.
    auto lz = [](std::uint32_t v) { return v == 0 ? 32 : __builtin_clz(v); };
    EXPECT_EQ(lz(xor_in), lz(xor_out))
        << a.to_string() << " vs " << b.to_string();
  }
}

TEST_P(CryptoPanPrefixProperty, V6Lower64PreservesPrefixes) {
  CryptoPan cp(test_secret());
  stats::Rng rng(GetParam() ^ 0x1234);
  const std::uint64_t hi = 0x20010db8'00010002ull;
  for (int trial = 0; trial < 40; ++trial) {
    auto a = IPv6Addr::from_halves(hi, rng());
    auto b = IPv6Addr::from_halves(hi, rng());
    auto ea = cp.anonymize(a, 64);
    auto eb = cp.anonymize(b, 64);
    auto lz = [](std::uint64_t v) {
      return v == 0 ? 64 : __builtin_clzll(v);
    };
    EXPECT_EQ(lz(a.low64() ^ b.low64()), lz(ea.low64() ^ eb.low64()));
    EXPECT_EQ(ea.high64(), hi);
  }
}

TEST_P(CryptoPanPrefixProperty, AnonymizationIsInjective) {
  // Prefix preservation implies injectivity on the anonymized range;
  // sample-check it.
  CryptoPan cp(test_secret());
  stats::Rng rng(GetParam() ^ 0x777);
  std::map<std::uint32_t, std::uint32_t> seen;
  for (int trial = 0; trial < 200; ++trial) {
    auto a = IPv4Addr(static_cast<std::uint32_t>(rng()));
    auto e = cp.anonymize(a).value();
    auto [it, inserted] = seen.emplace(e, a.value());
    if (!inserted) {
      EXPECT_EQ(it->second, a.value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CryptoPanPrefixProperty,
                         ::testing::Values(7u, 99u, 2024u));

TEST(CryptoPan, ZeroBitsIsIdentity) {
  CryptoPan cp(test_secret());
  auto a = IPv4Addr(198, 51, 100, 17);
  EXPECT_EQ(cp.anonymize(a, 0).value(), a.value());
  auto b = *IPv6Addr::parse("2001:db8::42");
  EXPECT_EQ(cp.anonymize(b, 0), b);
}

// ------------------------------------------------- reference equivalence
//
// The original (seed) CryptoPAN rebuilt the whole PRF input block for
// every bit. It is re-implemented here verbatim as the oracle: the
// incremental/cached production implementation must be bit-identical.

class ReferenceCryptoPan {
 public:
  explicit ReferenceCryptoPan(const CryptoPan::Secret& secret)
      : cipher_([&secret] {
          Aes128::Key key{};
          for (int i = 0; i < 16; ++i) key[static_cast<size_t>(i)] = secret[static_cast<size_t>(i)];
          return Aes128(key);
        }()) {
    Aes128::Block raw_pad{};
    for (int i = 0; i < 16; ++i)
      raw_pad[static_cast<size_t>(i)] = secret[static_cast<size_t>(16 + i)];
    pad_ = cipher_.encrypt(raw_pad);
  }

  [[nodiscard]] std::uint32_t anonymize_v4(std::uint32_t in, int bits) const {
    const int start = 32 - bits;
    std::uint32_t out = in & (bits == 32 ? 0u : ~0u << bits);
    for (int i = start; i < 32; ++i) {
      Aes128::Block block = pad_;
      for (int j = 0; j < i; ++j) set_bit(block, j, ((in >> (31 - j)) & 1) != 0);
      std::uint32_t flip = prf_bit(block) ? 1 : 0;
      out |= (((in >> (31 - i)) & 1) ^ flip) << (31 - i);
    }
    return out;
  }

  [[nodiscard]] IPv6Addr anonymize_v6(const IPv6Addr& addr, int bits) const {
    const int start = 128 - bits;
    Aes128::Block in{};
    for (size_t i = 0; i < 16; ++i) in[i] = addr.bytes()[i];
    Aes128::Block out = in;
    for (int i = start; i < 128; ++i) {
      Aes128::Block block = pad_;
      for (int j = 0; j < i; ++j) set_bit(block, j, get_bit(in, j));
      set_bit(out, i, get_bit(in, i) ^ prf_bit(block));
    }
    IPv6Addr::Bytes result{};
    for (size_t i = 0; i < 16; ++i) result[i] = out[i];
    return IPv6Addr(result);
  }

 private:
  static void set_bit(Aes128::Block& b, int i, bool v) {
    auto byte = static_cast<size_t>(i / 8);
    int shift = 7 - i % 8;
    if (v)
      b[byte] |= static_cast<std::uint8_t>(1u << shift);
    else
      b[byte] &= static_cast<std::uint8_t>(~(1u << shift));
  }
  static bool get_bit(const Aes128::Block& b, int i) {
    return ((b[static_cast<size_t>(i / 8)] >> (7 - i % 8)) & 1) != 0;
  }
  [[nodiscard]] bool prf_bit(const Aes128::Block& block) const {
    return (cipher_.encrypt(block)[0] & 0x80) != 0;
  }

  Aes128 cipher_;
  Aes128::Block pad_{};
};

TEST(CryptoPanEquivalence, V4MatchesReferenceAllBitLengths) {
  auto secret = test_secret(0x3c);
  ReferenceCryptoPan ref(secret);
  CryptoPan cached(secret);
  stats::Rng rng(555);
  for (int trial = 0; trial < 300; ++trial) {
    auto a = static_cast<std::uint32_t>(rng());
    int bits = static_cast<int>(rng.below(33));
    std::uint32_t want = ref.anonymize_v4(a, bits);
    EXPECT_EQ(cached.anonymize(IPv4Addr(a), bits).value(), want)
        << IPv4Addr(a).to_string() << "/" << bits;
  }
}

TEST(CryptoPanEquivalence, V6MatchesReferenceAllBitLengths) {
  auto secret = test_secret(0x71);
  ReferenceCryptoPan ref(secret);
  CryptoPan cached(secret);
  stats::Rng rng(556);
  for (int trial = 0; trial < 60; ++trial) {
    auto a = IPv6Addr::from_halves(rng(), rng());
    int bits = static_cast<int>(rng.below(129));
    auto want = ref.anonymize_v6(a, bits);
    EXPECT_EQ(cached.anonymize(a, bits), want) << a.to_string() << "/" << bits;
  }
}

TEST(CryptoPanEquivalence, CacheHitsMatchReferenceOnRepeats) {
  // Repeated and prefix-sharing addresses are exactly where the cache
  // takes over; cached results must not drift from the reference.
  auto secret = test_secret(0x09);
  ReferenceCryptoPan ref(secret);
  CryptoPan cached(secret);
  stats::Rng rng(557);
  for (int trial = 0; trial < 200; ++trial) {
    // Cluster addresses under a handful of /24s to force heavy cache reuse.
    auto a = IPv4Addr((0xC6336400u & 0xffffff00u) |
                      (static_cast<std::uint32_t>(rng.below(4)) << 8) |
                      static_cast<std::uint32_t>(rng.below(256)));
    EXPECT_EQ(cached.anonymize(a).value(), ref.anonymize_v4(a.value(), 32));
  }
}

TEST(CryptoPanCache, ScalarLoopAmortizesPrfWorkOnSharedSlash16) {
  auto secret = test_secret(0x42);
  ReferenceCryptoPan ref(secret);
  CryptoPan cp(secret);
  stats::Rng rng(558);

  std::vector<IPv4Addr> in;
  for (int i = 0; i < 500; ++i) {
    // One /16 worth of flow endpoints — the flow-log shape.
    in.emplace_back(0xCB007100u | static_cast<std::uint32_t>(rng.below(65536)));
  }
  for (const auto a : in)
    EXPECT_EQ(cp.anonymize(a).value(), ref.anonymize_v4(a.value(), 32));

  // The addresses share their top two bytes, so cached PRF work must be far
  // below the cache-free cost of 32 AES calls per address.
  EXPECT_LT(cp.prf_calls(), in.size() * 32 / 2);
}

}  // namespace
}  // namespace nbv6::net
