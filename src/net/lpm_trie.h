// Longest-prefix-match tries for IPv4 and IPv6.
//
// The BGP table that attributes resource addresses to cloud providers
// (cloud/providers.h) and the AS attribution path (net/asn.h) both do LPM
// over route announcements, and the attribution loops run once per resolved
// address — millions of lookups at experiment scale.
//
// Implementation: an arena-backed, path-compressed (Patricia) binary trie.
// All nodes live contiguously in one std::vector (no per-node heap
// allocation, good locality, trivially destroyed), and runs of
// single-child nodes are collapsed into up-to-64-bit "skip" strings, so a
// lookup visits O(distinct branch points) nodes instead of O(address bits).
//
// Lookups are const walks that write nothing, so a built trie is safe to
// share across threads; inserts need exclusive access.
//
// Values are stored by copy. Inserting at an existing (address, length)
// replaces the stored value.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/ip.h"
#include "net/prefix.h"

namespace nbv6::net {

namespace detail {

/// Canonical bit-string key: `W` 64-bit words, bits MSB-first, address bit
/// i at word i/64, bit (63 - i%64).
template <int W>
using LpmKeyWords = std::array<std::uint64_t, static_cast<size_t>(W)>;

inline LpmKeyWords<1> lpm_key(const IPv4Addr& a) {
  return {std::uint64_t{a.value()} << 32};
}
inline LpmKeyWords<2> lpm_key(const IPv6Addr& a) {
  return {a.high64(), a.low64()};
}

constexpr int lpm_key_bits(const IPv4Addr&) { return 32; }
constexpr int lpm_key_bits(const IPv6Addr&) { return 128; }

template <size_t W>
inline bool key_bit(const std::array<std::uint64_t, W>& k, int i) {
  return ((k[static_cast<size_t>(i >> 6)] >> (63 - (i & 63))) & 1) != 0;
}

/// Bits [pos, pos+len) of the key, left-aligned in a uint64 (len <= 64).
template <size_t W>
inline std::uint64_t key_extract(const std::array<std::uint64_t, W>& k,
                                 int pos, int len) {
  if (len == 0) return 0;
  const auto word = static_cast<size_t>(pos >> 6);
  const int off = pos & 63;
  std::uint64_t v = k[word] << off;
  if (off != 0 && word + 1 < W) v |= k[word + 1] >> (64 - off);
  return len == 64 ? v : v & (~std::uint64_t{0} << (64 - len));
}

}  // namespace detail

/// Patricia LPM trie generic over (Addr, Prefix, V).
///
/// `Prefix` must expose address()/length(); `Addr` must be convertible to a
/// canonical bit key via detail::lpm_key.
template <typename Addr, typename Prefix, typename V>
class LpmTrie {
 public:
  LpmTrie() { nodes_.push_back(Node{}); }  // root: empty skip, no value

  /// Insert or replace the value at `prefix`.
  void insert(const Prefix& prefix, V value) {
    const auto key = detail::lpm_key(prefix.address());
    const int len = prefix.length();
    std::uint32_t cur = 0;
    int depth = 0;
    for (;;) {
      const int sl = nodes_[cur].skip_len;
      const int cmplen = std::min(sl, len - depth);
      const std::uint64_t kb = detail::key_extract(key, depth, cmplen);
      const std::uint64_t sb =
          cmplen == 0 ? 0
                      : nodes_[cur].skip & (~std::uint64_t{0} << (64 - cmplen));
      int common = cmplen;
      if (kb != sb)
        common = std::min(cmplen, std::countl_zero(kb ^ sb));
      if (common < sl) {
        split(cur, common);
        continue;  // skip now fully matchable at this node
      }
      depth += sl;
      if (depth == len) {
        if (nodes_[cur].value < 0) {
          nodes_[cur].value = static_cast<std::int32_t>(values_.size());
          values_.push_back(std::move(value));
          ++size_;
        } else {
          values_[static_cast<size_t>(nodes_[cur].value)] = std::move(value);
        }
        return;
      }
      const int b = detail::key_bit(key, depth) ? 1 : 0;
      if (nodes_[cur].child[b] == kNil) {
        const std::int32_t vidx = static_cast<std::int32_t>(values_.size());
        values_.push_back(std::move(value));
        ++size_;
        const std::uint32_t chain = make_chain(key, depth + 1, len, vidx);
        nodes_[cur].child[b] = chain;  // after make_chain: no stale refs
        return;
      }
      cur = nodes_[cur].child[b];
      ++depth;
    }
  }

  /// Longest-prefix match: the value of the most specific stored prefix
  /// containing `addr`, or nullopt when nothing matches.
  [[nodiscard]] std::optional<V> lookup(const Addr& addr) const {
    const std::int32_t idx = lookup_index(detail::lpm_key(addr),
                                          detail::lpm_key_bits(addr));
    if (idx < 0) return std::nullopt;
    return values_[static_cast<size_t>(idx)];
  }

  /// Exact-match lookup at a specific prefix.
  [[nodiscard]] std::optional<V> at(const Prefix& prefix) const {
    const auto key = detail::lpm_key(prefix.address());
    const int len = prefix.length();
    std::uint32_t cur = 0;
    int depth = 0;
    for (;;) {
      const Node& n = nodes_[cur];
      if (n.skip_len > len - depth) return std::nullopt;
      if (n.skip_len > 0 &&
          detail::key_extract(key, depth, n.skip_len) !=
              (n.skip & (~std::uint64_t{0} << (64 - n.skip_len))))
        return std::nullopt;
      depth += n.skip_len;
      if (depth == len) {
        if (n.value < 0) return std::nullopt;
        return values_[static_cast<size_t>(n.value)];
      }
      const std::uint32_t c = n.child[detail::key_bit(key, depth) ? 1 : 0];
      if (c == kNil) return std::nullopt;
      cur = c;
      ++depth;
    }
  }

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Arena footprint, for tests and capacity planning.
  [[nodiscard]] size_t node_count() const { return nodes_.size(); }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    std::uint64_t skip = 0;  // left-aligned compressed path bits
    std::uint32_t child[2] = {kNil, kNil};
    std::int32_t value = -1;  // index into values_, -1 = none
    std::uint8_t skip_len = 0;  // 0..64
  };

  using Key = decltype(detail::lpm_key(std::declval<Addr>()));

  [[nodiscard]] std::int32_t lookup_index(const Key& key, int max_bits) const {
    std::uint32_t cur = 0;
    int depth = 0;
    std::int32_t best = -1;
    for (;;) {
      const Node& n = nodes_[cur];
      if (n.skip_len > 0) {
        if (n.skip_len > max_bits - depth ||
            detail::key_extract(key, depth, n.skip_len) !=
                (n.skip & (~std::uint64_t{0} << (64 - n.skip_len))))
          return best;
        depth += n.skip_len;
      }
      if (n.value >= 0) best = n.value;
      if (depth >= max_bits) return best;
      const std::uint32_t c = n.child[detail::key_bit(key, depth) ? 1 : 0];
      if (c == kNil) return best;
      cur = c;
      ++depth;
    }
  }

  /// Split node `idx` so its skip becomes its first `common` bits; the
  /// remainder (branch bit + tail) moves to a freshly arena-allocated
  /// child. Parent links stay valid because `idx` keeps its slot.
  void split(std::uint32_t idx, int common) {
    Node upper = nodes_[idx];
    Node lower = upper;
    const int bb = ((upper.skip >> (63 - common)) & 1) != 0 ? 1 : 0;
    lower.skip = common + 1 >= 64 ? 0 : upper.skip << (common + 1);
    lower.skip_len = static_cast<std::uint8_t>(upper.skip_len - common - 1);
    const auto lower_idx = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(lower);
    Node& n = nodes_[idx];
    n.skip_len = static_cast<std::uint8_t>(common);
    n.skip = common == 0 ? 0 : upper.skip & (~std::uint64_t{0} << (64 - common));
    n.child[bb] = lower_idx;
    n.child[1 - bb] = kNil;
    n.value = -1;
  }

  /// Arena-allocate a path carrying bits [pos, len) of `key` ending in a
  /// node that stores `vidx`. At most ceil((len-pos)/65) nodes (a skip is
  /// capped at 64 bits; the link to a continuation node consumes one more).
  std::uint32_t make_chain(const Key& key, int pos, int len,
                           std::int32_t vidx) {
    Node n;
    const int sl = std::min(64, len - pos);
    n.skip = detail::key_extract(key, pos, sl);
    n.skip_len = static_cast<std::uint8_t>(sl);
    pos += sl;
    if (pos == len) {
      n.value = vidx;
    } else {
      const int b = detail::key_bit(key, pos) ? 1 : 0;
      n.child[b] = make_chain(key, pos + 1, len, vidx);
    }
    nodes_.push_back(n);
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  std::vector<Node> nodes_;
  std::vector<V> values_;
  size_t size_ = 0;
};

template <typename V>
using LpmTrie4 = LpmTrie<IPv4Addr, Prefix4, V>;
template <typename V>
using LpmTrie6 = LpmTrie<IPv6Addr, Prefix6, V>;

}  // namespace nbv6::net
