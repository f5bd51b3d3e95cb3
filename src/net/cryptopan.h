// CryptoPAN prefix-preserving IP address anonymization (Xu et al., ICNP'02).
//
// The paper's data-release pipeline (§A) scrambles the low 8 bits of IPv4
// addresses and the low /64 of IPv6 addresses with CryptoPAN before flow
// logs leave a residence router. We implement the full algorithm — any bit
// range can be anonymized — plus convenience entry points matching the
// paper's policy.
//
// Prefix preservation: if two addresses share their first k bits, their
// anonymized forms also share exactly their first k bits (within the
// anonymized range). This is what lets anonymized data still support
// prefix-level analyses like per-AS aggregation.
//
// Performance: the PRF input for bit i is the original address's first i
// bits followed by padding, so it is built incrementally (one word mutated
// per step) instead of re-assembling the whole block per bit. Because the
// PRF depends only on the bit-prefix, its outputs are memoized in a
// direct-mapped prefix cache at byte-chunk granularity: one cache entry
// holds the eight flip bits of one address byte, keyed by the address
// prefix through that byte. Successive calls on addresses with shared
// prefixes (the common case for a residence's flow log) then pay the AES
// cost only for the bytes that actually differ. The cache makes
// anonymize() non-reentrant: a CryptoPan instance must not be shared
// across threads without external synchronization.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/aes.h"
#include "net/ip.h"

namespace nbv6::net {

/// Prefix-preserving anonymizer keyed by a 32-byte secret: 16 bytes of AES
/// key and 16 bytes of padding block, per the reference implementation.
class CryptoPan {
 public:
  using Secret = std::array<std::uint8_t, 32>;

  explicit CryptoPan(const Secret& secret);

  /// Anonymize the low `bits` bits of an IPv4 address, preserving prefixes
  /// within that range and leaving the top (32 - bits) bits untouched.
  /// `bits` in [0, 32]. The paper's policy is bits = 8.
  [[nodiscard]] IPv4Addr anonymize(IPv4Addr addr, int bits = 32) const;

  /// Anonymize the low `bits` bits of an IPv6 address. The paper's policy
  /// is bits = 64 (scramble the interface identifier, keep the /64 prefix).
  [[nodiscard]] IPv6Addr anonymize(const IPv6Addr& addr, int bits = 64) const;

  /// Family-dispatching convenience applying the paper's policy
  /// (v4: low 8 bits; v6: low 64 bits).
  [[nodiscard]] IpAddr anonymize_paper_policy(const IpAddr& addr) const;

  /// Number of AES block encryptions performed so far (cache misses only).
  /// Exposed so tests and benchmarks can observe cache amortization.
  [[nodiscard]] std::uint64_t prf_calls() const { return prf_calls_; }

 private:
  // One byte-chunk of cached PRF output for a v4 prefix: `flips` bit
  // (7 - j) is the PRF bit for address position 8*chunk + j.
  struct CacheEntry4 {
    std::uint64_t key;  // (prefix through chunk end) << 2 | chunk
    std::uint8_t flips;
  };
  struct CacheEntry6 {
    std::uint64_t hi, lo;  // address masked to the chunk-end prefix
    std::uint8_t chunk;    // 0..15; 0xff = empty slot
    std::uint8_t flips;
  };

  /// Flip bits for v4 byte `chunk` (positions [8c, 8c+8)) of `addr`,
  /// through the cache.
  [[nodiscard]] std::uint8_t chunk_flips(std::uint32_t addr, int chunk) const;
  /// Same for the v6 byte `chunk` of the address given as two halves.
  [[nodiscard]] std::uint8_t chunk_flips(std::uint64_t hi, std::uint64_t lo,
                                         int chunk) const;

  Aes128 cipher_;
  // The canonical padding block, packed as big-endian words (the form the
  // incremental PRF input assembly consumes).
  std::array<std::uint32_t, 4> pad_words_{};
  mutable std::vector<CacheEntry4> cache4_;
  mutable std::vector<CacheEntry6> cache6_;
  mutable std::uint64_t prf_calls_ = 0;
};

}  // namespace nbv6::net
