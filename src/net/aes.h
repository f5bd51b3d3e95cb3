// AES-128 block encryption, from scratch.
//
// Present solely as the pseudo-random function inside CryptoPAN
// (net/cryptopan.h), the prefix-preserving address anonymizer the paper's
// release pipeline uses (§A). Encryption-only (CryptoPAN never decrypts),
// single block, no modes; constant-time behaviour is NOT a goal here — this
// anonymizes research data offline, it is not a TLS stack.
//
// Implementation: the classic 32-bit T-table formulation (SubBytes,
// ShiftRows and MixColumns fused into four 256-entry uint32 tables), which
// turns each round into 16 table loads and a handful of XORs. One CryptoPAN
// address costs up to 32 (v4) / 128 (v6) block encryptions, so the per-block
// constant dominates every anonymization benchmark.
#pragma once

#include <array>
#include <cstdint>

namespace nbv6::net {

/// AES-128 in encrypt-only form.
class Aes128 {
 public:
  using Block = std::array<std::uint8_t, 16>;
  using Key = std::array<std::uint8_t, 16>;

  explicit Aes128(const Key& key);

  /// Encrypt one 16-byte block (ECB, single block).
  [[nodiscard]] Block encrypt(const Block& plaintext) const;

  /// Encrypt a block already packed as four big-endian words (the state
  /// layout encrypt() uses internally). Lets callers that maintain their
  /// own word-packed state (CryptoPAN's incremental PRF input) skip the
  /// byte<->word marshalling on both sides.
  [[nodiscard]] std::array<std::uint32_t, 4> encrypt_words(
      const std::array<std::uint32_t, 4>& words) const;

 private:
  // 44 expanded key words (AES-128 = 10 rounds + initial), packed
  // big-endian: word i holds key bytes 4i..4i+3 MSB-first.
  std::array<std::uint32_t, 44> round_keys_{};
};

}  // namespace nbv6::net
