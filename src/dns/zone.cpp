#include "dns/zone.h"

#include <algorithm>
#include <cctype>
#include <utility>

namespace nbv6::dns {

std::string_view to_string(RecordType t) {
  switch (t) {
    case RecordType::a:
      return "A";
    case RecordType::aaaa:
      return "AAAA";
    case RecordType::cname:
      return "CNAME";
  }
  return "?";
}

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

ZoneDb::Entry& ZoneDb::intern(std::string canon) {
  // Keep load under 3/4 so probe chains stay short.
  if ((entries_.size() + 1) * 4 > slots_.size() * 3) grow_slots();
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = hash_name(canon) & mask;
  while (slots_[s] != 0) {
    Entry& e = entries_[slots_[s] - 1];
    if (e.name == canon) return e;
    s = (s + 1) & mask;
  }
  Entry e;
  e.name = std::move(canon);
  entries_.push_back(std::move(e));
  slots_[s] = static_cast<std::uint32_t>(entries_.size());
  return entries_.back();
}

void ZoneDb::erase_entry(std::uint32_t idx) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = hash_name(entries_[idx].name) & mask;
  while (slots_[s] != idx + 1) s = (s + 1) & mask;

  // Backward-shift deletion: refill the hole with any later chain member
  // that is still reachable from its ideal slot through the hole, so no
  // probe sequence ever crosses an empty slot to reach its entry.
  slots_[s] = 0;
  std::size_t j = s;
  while (true) {
    j = (j + 1) & mask;
    if (slots_[j] == 0) break;
    const std::size_t ideal = hash_name(entries_[slots_[j] - 1].name) & mask;
    if (((j - ideal) & mask) >= ((j - s) & mask)) {
      slots_[s] = slots_[j];
      slots_[j] = 0;
      s = j;
    }
  }

  // Swap-pop the dense store; the moved entry's slot gets its new index.
  const std::uint32_t last = static_cast<std::uint32_t>(entries_.size()) - 1;
  if (idx != last) {
    entries_[idx] = std::move(entries_[last]);
    std::size_t t = hash_name(entries_[idx].name) & mask;
    while (slots_[t] != last + 1) t = (t + 1) & mask;
    slots_[t] = idx + 1;
  }
  entries_.pop_back();
}

bool ZoneDb::add_a(std::string_view name, net::IPv4Addr addr) {
  auto& e = intern(canonicalize(name));
  if (!e.cname.empty()) return false;
  if (std::find(e.a.begin(), e.a.end(), addr) == e.a.end()) e.a.push_back(addr);
  return true;
}

bool ZoneDb::add_aaaa(std::string_view name, net::IPv6Addr addr) {
  auto& e = intern(canonicalize(name));
  if (!e.cname.empty()) return false;
  if (std::find(e.aaaa.begin(), e.aaaa.end(), addr) == e.aaaa.end())
    e.aaaa.push_back(addr);
  return true;
}

bool ZoneDb::add_cname(std::string_view name, std::string_view target) {
  auto& e = intern(canonicalize(name));
  if (!e.a.empty() || !e.aaaa.empty()) return false;
  if (!e.cname.empty() && e.cname != canonicalize(target)) return false;
  e.cname = canonicalize(target);
  return true;
}

size_t ZoneDb::remove(std::string_view name, RecordType type) {
  const std::uint32_t idx =
      is_canonical(name) ? find_index(name) : find_index(canonicalize(name));
  if (idx == kNoEntry) return 0;
  Entry& e = entries_[idx];
  size_t removed = 0;
  switch (type) {
    case RecordType::a:
      removed = e.a.size();
      e.a.clear();
      break;
    case RecordType::aaaa:
      removed = e.aaaa.size();
      e.aaaa.clear();
      break;
    case RecordType::cname:
      removed = e.cname.empty() ? 0 : 1;
      e.cname.clear();
      break;
  }
  if (e.empty()) erase_entry(idx);
  return removed;
}

ZoneDb::NameView ZoneDb::lookup(std::string_view name) const {
  const Entry* e = find_entry(name);
  if (e == nullptr) return {};
  return {true, std::string_view(e->cname), &e->a, &e->aaaa};
}

}  // namespace nbv6::dns
