#include "net/cryptopan.h"

#include <cassert>
#include <cstddef>

using std::size_t;

namespace nbv6::net {
namespace {

// Cache geometry: direct-mapped, power-of-two sized. 64Ki v4 entries
// (1 MiB) and 32Ki v6 entries (0.75 MiB) bound the total footprint while
// comfortably holding the working set of a day's flow batch.
constexpr size_t kCache4Bits = 16;
constexpr size_t kCache6Bits = 15;
constexpr std::uint64_t kEmptyKey4 = ~std::uint64_t{0};

// splitmix64 finalizer — a cheap, well-mixed hash for table indexing.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// Top-i-bits mask of a 32-bit word (i in [0, 32]).
constexpr std::uint32_t top_mask32(int i) {
  return i == 0 ? 0u : ~std::uint32_t{0} << (32 - i);
}
constexpr std::uint64_t top_mask64(int i) {
  return i == 0 ? 0ull : ~std::uint64_t{0} << (64 - i);
}

}  // namespace

CryptoPan::CryptoPan(const Secret& secret)
    : cipher_([&secret] {
        Aes128::Key key{};
        for (int i = 0; i < 16; ++i)
          key[static_cast<size_t>(i)] = secret[static_cast<size_t>(i)];
        return Aes128(key);
      }()),
      cache4_(size_t{1} << kCache4Bits, CacheEntry4{kEmptyKey4, 0}),
      cache6_(size_t{1} << kCache6Bits, CacheEntry6{0, 0, 0xff, 0}) {
  // Per the reference implementation, the second half of the secret is
  // itself encrypted once to form the canonical padding block.
  Aes128::Block raw_pad{};
  for (int i = 0; i < 16; ++i)
    raw_pad[static_cast<size_t>(i)] = secret[static_cast<size_t>(16 + i)];
  const Aes128::Block pad = cipher_.encrypt(raw_pad);
  for (int w = 0; w < 4; ++w) {
    pad_words_[static_cast<size_t>(w)] =
        (std::uint32_t{pad[static_cast<size_t>(4 * w)]} << 24) |
        (std::uint32_t{pad[static_cast<size_t>(4 * w + 1)]} << 16) |
        (std::uint32_t{pad[static_cast<size_t>(4 * w + 2)]} << 8) |
        std::uint32_t{pad[static_cast<size_t>(4 * w + 3)]};
  }
}

std::uint8_t CryptoPan::chunk_flips(std::uint32_t addr, int chunk) const {
  // The flips of positions [8c, 8c+8) depend on address prefixes of length
  // 8c .. 8c+7, all contained in the first 8c+8 bits — the cache key.
  const int end = 8 * chunk + 8;
  const std::uint32_t prefix = addr >> (32 - end);
  const std::uint64_t key =
      (std::uint64_t{prefix} << 2) | static_cast<std::uint64_t>(chunk);

  CacheEntry4& slot =
      cache4_[mix64(key) & ((size_t{1} << kCache4Bits) - 1)];
  if (slot.key == key) return slot.flips;

  // PRF input for bit i: original bits [0, i) then padding — only word 0
  // ever differs from the padding block for a v4 address, so each step is
  // one masked merge instead of an O(i) block rebuild.
  std::uint8_t flips = 0;
  for (int i = 8 * chunk; i < end; ++i) {
    const std::uint32_t w0 =
        (addr & top_mask32(i)) | (pad_words_[0] & ~top_mask32(i));
    const auto out = cipher_.encrypt_words(
        {w0, pad_words_[1], pad_words_[2], pad_words_[3]});
    ++prf_calls_;
    flips = static_cast<std::uint8_t>((flips << 1) | (out[0] >> 31));
  }
  slot = CacheEntry4{key, flips};
  return flips;
}

std::uint8_t CryptoPan::chunk_flips(std::uint64_t hi, std::uint64_t lo,
                                    int chunk) const {
  const int end = 8 * chunk + 8;
  // Mask the address down to the chunk-end prefix for an exact cache key.
  const std::uint64_t mhi = end >= 64 ? hi : hi & top_mask64(end);
  const std::uint64_t mlo = end <= 64 ? 0 : lo & top_mask64(end - 64);

  const std::uint64_t h =
      mix64(mhi ^ mix64(mlo ^ static_cast<std::uint64_t>(chunk)));
  CacheEntry6& slot = cache6_[h & ((size_t{1} << kCache6Bits) - 1)];
  if (slot.chunk == chunk && slot.hi == mhi && slot.lo == mlo)
    return slot.flips;

  // Words 0..3 hold the address big-endian; word `wi` is the one the
  // current chunk lives in (chunks are byte-aligned, so they never span
  // words). Words above are pure address bits, words below pure padding.
  const std::uint32_t aw[4] = {
      static_cast<std::uint32_t>(hi >> 32), static_cast<std::uint32_t>(hi),
      static_cast<std::uint32_t>(lo >> 32), static_cast<std::uint32_t>(lo)};
  const int wi = chunk / 4;
  std::array<std::uint32_t, 4> block;
  for (int w = 0; w < 4; ++w)
    block[static_cast<size_t>(w)] =
        w < wi ? aw[w] : pad_words_[static_cast<size_t>(w)];

  std::uint8_t flips = 0;
  for (int i = 8 * chunk; i < end; ++i) {
    const int b = i % 32;
    block[static_cast<size_t>(wi)] =
        (aw[wi] & top_mask32(b)) |
        (pad_words_[static_cast<size_t>(wi)] & ~top_mask32(b));
    const auto out = cipher_.encrypt_words(block);
    ++prf_calls_;
    flips = static_cast<std::uint8_t>((flips << 1) | (out[0] >> 31));
  }
  slot = CacheEntry6{mhi, mlo, static_cast<std::uint8_t>(chunk), flips};
  return flips;
}

IPv4Addr CryptoPan::anonymize(IPv4Addr addr, int bits) const {
  assert(bits >= 0 && bits <= 32);
  if (bits == 0) return addr;
  const std::uint32_t in = addr.value();
  const int start = 32 - bits;

  // Gather flip bits chunk by chunk, then keep only the low `bits`.
  std::uint32_t flips = 0;
  for (int c = start / 8; c < 4; ++c)
    flips |= std::uint32_t{chunk_flips(in, c)} << (24 - 8 * c);
  flips &= bits == 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << bits) - 1;
  return IPv4Addr(in ^ flips);
}

IPv6Addr CryptoPan::anonymize(const IPv6Addr& addr, int bits) const {
  assert(bits >= 0 && bits <= 128);
  if (bits == 0) return addr;
  const std::uint64_t hi = addr.high64();
  const std::uint64_t lo = addr.low64();
  const int start = 128 - bits;

  std::uint64_t flips_hi = 0, flips_lo = 0;
  for (int c = start / 8; c < 16; ++c) {
    const std::uint64_t f = chunk_flips(hi, lo, c);
    if (c < 8)
      flips_hi |= f << (56 - 8 * c);
    else
      flips_lo |= f << (120 - 8 * c);
  }
  // Mask flips outside the anonymized range.
  if (bits <= 64) {
    flips_hi = 0;
    flips_lo &= bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  } else if (bits < 128) {
    flips_hi &= (std::uint64_t{1} << (bits - 64)) - 1;
  }
  return IPv6Addr::from_halves(hi ^ flips_hi, lo ^ flips_lo);
}

IpAddr CryptoPan::anonymize_paper_policy(const IpAddr& addr) const {
  if (addr.is_v4()) return anonymize(addr.v4(), 8);
  return anonymize(addr.v6(), 64);
}

}  // namespace nbv6::net
