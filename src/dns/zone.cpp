#include "dns/zone.h"

#include <algorithm>
#include <cctype>
#include <utility>

namespace nbv6::dns {

std::string canonicalize(std::string_view name) {
  if (!name.empty() && name.back() == '.') name.remove_suffix(1);
  std::string out(name);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

bool is_canonical(std::string_view name) {
  if (!name.empty() && name.back() == '.') return false;
  return std::none_of(name.begin(), name.end(),
                      [](unsigned char c) { return c >= 'A' && c <= 'Z'; });
}

std::uint64_t ZoneDb::hash_name(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint32_t ZoneDb::find_index(std::string_view canon) const {
  if (slots_.empty()) return kNoEntry;
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = hash_name(canon) & mask;
  while (slots_[s] != 0) {
    const std::uint32_t idx = slots_[s] - 1;
    if (entries_[idx].name == canon) return idx;
    s = (s + 1) & mask;
  }
  return kNoEntry;
}

const ZoneDb::Entry* ZoneDb::find_entry(std::string_view name) const {
  const std::uint32_t idx =
      is_canonical(name) ? find_index(name) : find_index(canonicalize(name));
  return idx == kNoEntry ? nullptr : &entries_[idx];
}

void ZoneDb::grow_slots() {
  const std::size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
  slots_.assign(cap, 0);
  const std::size_t mask = cap - 1;
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    std::size_t s = hash_name(entries_[i].name) & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = i + 1;
  }
}

ZoneDb::Entry& ZoneDb::intern(std::string_view name) {
  if (!is_canonical(name)) return intern(canonicalize(name));
  // Keep load under 3/4 so probe chains stay short.
  if ((entries_.size() + 1) * 4 > slots_.size() * 3) grow_slots();
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = hash_name(name) & mask;
  while (slots_[s] != 0) {
    Entry& e = entries_[slots_[s] - 1];
    if (e.name == name) return e;
    s = (s + 1) & mask;
  }
  // Copy before growing the store: `name` may view one of its strings (a
  // CNAME target read back from lookup()), which growth would move.
  std::string owned(name);
  Entry& e = entries_.emplace_back();
  e.name = std::move(owned);
  slots_[s] = static_cast<std::uint32_t>(entries_.size());
  return e;
}

bool ZoneDb::add_a(std::string_view name, net::IPv4Addr addr) {
  auto& e = intern(name);
  if (!e.cname.empty()) return false;
  if (std::find(e.a.begin(), e.a.end(), addr) == e.a.end()) e.a.push_back(addr);
  return true;
}

bool ZoneDb::add_aaaa(std::string_view name, net::IPv6Addr addr) {
  auto& e = intern(name);
  if (!e.cname.empty()) return false;
  if (std::find(e.aaaa.begin(), e.aaaa.end(), addr) == e.aaaa.end())
    e.aaaa.push_back(addr);
  return true;
}

bool ZoneDb::add_cname(std::string_view name, std::string_view target) {
  if (!is_canonical(target)) return add_cname(name, canonicalize(target));
  auto& e = intern(name);
  if (!e.a.empty() || !e.aaaa.empty()) return false;
  if (e.cname.empty()) e.cname = target;
  return e.cname == target;
}

ZoneDb::NameView ZoneDb::lookup(std::string_view name) const {
  const Entry* e = find_entry(name);
  if (e == nullptr) return {};
  return {true, std::string_view(e->cname), &e->a, &e->aaaa};
}

}  // namespace nbv6::dns
