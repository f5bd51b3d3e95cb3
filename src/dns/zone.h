// In-memory DNS zone database.
//
// The synthetic stand-in for the live DNS the paper's crawler queries: the
// web universe (web/universe.h) registers A, AAAA, and CNAME records here,
// and the crawler + cloud analyses resolve against it. Names are normalized
// to lowercase without a trailing dot.
//
// Storage is an interning store: entries live in one dense vector and an
// open-addressing slot table (linear probing over FNV-1a name hashes) maps
// canonical names to entry indices. Resolution chains probe the flat table
// instead of walking a red-black tree — BM_DnsResolveChain's hot path is a
// hash and a few contiguous slot reads per hop rather than O(log n)
// pointer-chasing string compares. Names carry no order: lookup() is the
// one reader. Writers probe straight from their string_view as well: a
// string is built only for a name not yet interned, or one that is not
// canonical.
//
// The zone is insert-only: no record or name is ever removed, so an
// entry's index in the dense store is stable once interned. lookup() is a
// const read, so a built zone is safe to share across threads.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/ip.h"

namespace nbv6::dns {

/// Lowercase, strip one trailing dot. DNS names in this codebase are always
/// stored in this canonical form.
std::string canonicalize(std::string_view name);

/// True when canonicalize(name) == name, i.e. no uppercase letters and no
/// trailing dot. Lookups on canonical names take the allocation-free path.
bool is_canonical(std::string_view name);

/// A zone database mapping owner names to records. Multiple A/AAAA records
/// per name are allowed (round-robin sets); at most one CNAME per name, and
/// a name with a CNAME may hold no other records (RFC 1034 §3.6.2).
class ZoneDb {
 public:
  /// All three add more-or-less what you expect; each returns false (and
  /// changes nothing) when the RFC 1034 CNAME-exclusivity rule would be
  /// violated.
  bool add_a(std::string_view name, net::IPv4Addr addr);
  bool add_aaaa(std::string_view name, net::IPv6Addr addr);
  bool add_cname(std::string_view name, std::string_view target);

  /// Everything one resolution hop needs from a single table probe. Views
  /// and pointers reference the zone's own storage: valid until the zone
  /// is modified.
  struct NameView {
    bool exists = false;
    std::string_view cname;                     ///< empty = none
    const std::vector<net::IPv4Addr>* a = nullptr;     ///< null iff !exists
    const std::vector<net::IPv6Addr>* aaaa = nullptr;  ///< null iff !exists
  };
  [[nodiscard]] NameView lookup(std::string_view name) const;

  [[nodiscard]] size_t name_count() const { return entries_.size(); }

 private:
  struct Entry {
    std::string name;  ///< canonical owner name (the interned key)
    std::vector<net::IPv4Addr> a;
    std::vector<net::IPv6Addr> aaaa;
    std::string cname;  // empty = none
  };

  static constexpr std::uint32_t kNoEntry = 0xffffffffu;

  static std::uint64_t hash_name(std::string_view name);

  /// Heterogeneous lookup: canonical names (the overwhelmingly common case
  /// — every stored record and every CNAME target is canonical) probe the
  /// slot table directly from the string_view; only non-canonical queries
  /// pay for a canonicalized copy.
  [[nodiscard]] const Entry* find_entry(std::string_view name) const;
  [[nodiscard]] std::uint32_t find_index(std::string_view canon) const;

  /// Find-or-insert the entry for `name`, probing straight from the view:
  /// a string is built only for a new entry or a non-canonical name.
  Entry& intern(std::string_view name);
  /// Rebuild the slot table at double capacity (or the initial 16).
  void grow_slots();

  /// Dense record store in interning order; indices never change.
  std::vector<Entry> entries_;
  /// Open-addressing table: entry index + 1, 0 = empty. Power-of-two size,
  /// linear probing, grown past 3/4 load.
  std::vector<std::uint32_t> slots_;
};

}  // namespace nbv6::dns
