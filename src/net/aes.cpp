#include "net/aes.h"

#include <cstddef>

using std::size_t;

namespace nbv6::net {
namespace {

// The AES S-box (FIPS 197, Fig. 7).
constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

// Round constants for key expansion.
constexpr std::uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

// Multiply by x in GF(2^8) modulo the AES polynomial.
constexpr std::uint8_t xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0x00));
}

constexpr std::uint32_t rotr8(std::uint32_t v) { return (v >> 8) | (v << 24); }

// T-tables: Te0[x] packs MixColumns applied to SubBytes(x) for the first
// state row, MSB-first — {02·S[x], S[x], S[x], 03·S[x]}. Te1..Te3 are the
// same column rotated down one row each, so a round's output word is
//   Te0[b0] ^ Te1[b1] ^ Te2[b2] ^ Te3[b3] ^ rk
// with b0..b3 drawn along the ShiftRows diagonal.
struct Tables {
  std::uint32_t te0[256], te1[256], te2[256], te3[256];
};

constexpr Tables make_tables() {
  Tables t{};
  for (int i = 0; i < 256; ++i) {
    std::uint8_t s = kSbox[i];
    std::uint8_t s2 = xtime(s);
    std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
    std::uint32_t w = (std::uint32_t{s2} << 24) | (std::uint32_t{s} << 16) |
                      (std::uint32_t{s} << 8) | std::uint32_t{s3};
    t.te0[i] = w;
    t.te1[i] = rotr8(w);
    t.te2[i] = rotr8(rotr8(w));
    t.te3[i] = rotr8(rotr8(rotr8(w)));
  }
  return t;
}

constexpr Tables kT = make_tables();

}  // namespace

Aes128::Aes128(const Key& key) {
  // Key expansion (FIPS 197 §5.2) directly over big-endian packed words.
  for (int i = 0; i < 4; ++i) {
    round_keys_[static_cast<size_t>(i)] =
        (std::uint32_t{key[static_cast<size_t>(4 * i)]} << 24) |
        (std::uint32_t{key[static_cast<size_t>(4 * i + 1)]} << 16) |
        (std::uint32_t{key[static_cast<size_t>(4 * i + 2)]} << 8) |
        std::uint32_t{key[static_cast<size_t>(4 * i + 3)]};
  }
  for (int i = 4; i < 44; ++i) {
    std::uint32_t t = round_keys_[static_cast<size_t>(i - 1)];
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      t = (t << 8) | (t >> 24);
      t = (std::uint32_t{kSbox[(t >> 24) & 0xff]} << 24) |
          (std::uint32_t{kSbox[(t >> 16) & 0xff]} << 16) |
          (std::uint32_t{kSbox[(t >> 8) & 0xff]} << 8) |
          std::uint32_t{kSbox[t & 0xff]};
      t ^= std::uint32_t{kRcon[i / 4]} << 24;
    }
    round_keys_[static_cast<size_t>(i)] =
        round_keys_[static_cast<size_t>(i - 4)] ^ t;
  }
}

std::array<std::uint32_t, 4> Aes128::encrypt_words(
    const std::array<std::uint32_t, 4>& words) const {
  const std::uint32_t* rk = round_keys_.data();
  std::uint32_t s0 = words[0] ^ rk[0];
  std::uint32_t s1 = words[1] ^ rk[1];
  std::uint32_t s2 = words[2] ^ rk[2];
  std::uint32_t s3 = words[3] ^ rk[3];

  // Nine full rounds, fully unrolled so the table indices and key offsets
  // are compile-time constants (the serial dependency chain per round is
  // one L1 load plus a three-deep XOR tree).
  std::uint32_t t0, t1, t2, t3;
#define NBV6_AES_ROUND(r)                                     \
  t0 = kT.te0[s0 >> 24] ^ kT.te1[(s1 >> 16) & 0xff] ^         \
       kT.te2[(s2 >> 8) & 0xff] ^ kT.te3[s3 & 0xff] ^ rk[4 * (r)];     \
  t1 = kT.te0[s1 >> 24] ^ kT.te1[(s2 >> 16) & 0xff] ^         \
       kT.te2[(s3 >> 8) & 0xff] ^ kT.te3[s0 & 0xff] ^ rk[4 * (r) + 1]; \
  t2 = kT.te0[s2 >> 24] ^ kT.te1[(s3 >> 16) & 0xff] ^         \
       kT.te2[(s0 >> 8) & 0xff] ^ kT.te3[s1 & 0xff] ^ rk[4 * (r) + 2]; \
  t3 = kT.te0[s3 >> 24] ^ kT.te1[(s0 >> 16) & 0xff] ^         \
       kT.te2[(s1 >> 8) & 0xff] ^ kT.te3[s2 & 0xff] ^ rk[4 * (r) + 3]; \
  s0 = t0;                                                    \
  s1 = t1;                                                    \
  s2 = t2;                                                    \
  s3 = t3;
  NBV6_AES_ROUND(1)
  NBV6_AES_ROUND(2)
  NBV6_AES_ROUND(3)
  NBV6_AES_ROUND(4)
  NBV6_AES_ROUND(5)
  NBV6_AES_ROUND(6)
  NBV6_AES_ROUND(7)
  NBV6_AES_ROUND(8)
  NBV6_AES_ROUND(9)
#undef NBV6_AES_ROUND

  // Final round: SubBytes + ShiftRows only (no MixColumns).
  auto sub4 = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                 std::uint32_t d) {
    return (std::uint32_t{kSbox[a >> 24]} << 24) |
           (std::uint32_t{kSbox[(b >> 16) & 0xff]} << 16) |
           (std::uint32_t{kSbox[(c >> 8) & 0xff]} << 8) |
           std::uint32_t{kSbox[d & 0xff]};
  };
  return {sub4(s0, s1, s2, s3) ^ rk[40], sub4(s1, s2, s3, s0) ^ rk[41],
          sub4(s2, s3, s0, s1) ^ rk[42], sub4(s3, s0, s1, s2) ^ rk[43]};
}

Aes128::Block Aes128::encrypt(const Block& plaintext) const {
  std::array<std::uint32_t, 4> w;
  for (int i = 0; i < 4; ++i) {
    w[static_cast<size_t>(i)] =
        (std::uint32_t{plaintext[static_cast<size_t>(4 * i)]} << 24) |
        (std::uint32_t{plaintext[static_cast<size_t>(4 * i + 1)]} << 16) |
        (std::uint32_t{plaintext[static_cast<size_t>(4 * i + 2)]} << 8) |
        std::uint32_t{plaintext[static_cast<size_t>(4 * i + 3)]};
  }
  w = encrypt_words(w);
  Block out;
  for (int i = 0; i < 4; ++i) {
    out[static_cast<size_t>(4 * i)] =
        static_cast<std::uint8_t>(w[static_cast<size_t>(i)] >> 24);
    out[static_cast<size_t>(4 * i + 1)] =
        static_cast<std::uint8_t>(w[static_cast<size_t>(i)] >> 16);
    out[static_cast<size_t>(4 * i + 2)] =
        static_cast<std::uint8_t>(w[static_cast<size_t>(i)] >> 8);
    out[static_cast<size_t>(4 * i + 3)] =
        static_cast<std::uint8_t>(w[static_cast<size_t>(i)]);
  }
  return out;
}

}  // namespace nbv6::net
