#include "web/psl.h"

#include <algorithm>

namespace nbv6::web {

namespace {

unsigned char fold(unsigned char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<unsigned char>(c | 0x20) : c;
}

bool equal_folded(std::string_view a, std::string_view b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](unsigned char x, unsigned char y) {
                      return fold(x) == fold(y);
                    });
}

/// The host without one trailing dot (the DNS root label).
std::string_view strip_root(std::string_view host) {
  if (!host.empty() && host.back() == '.') host.remove_suffix(1);
  return host;
}

constexpr std::string_view kBuiltinRules[] = {
    // gTLDs and common new TLDs.
    "com", "org", "net", "edu", "gov", "mil", "int", "io", "co", "ai",
    "app", "dev", "cloud", "online", "shop", "site", "xyz", "info", "biz",
    "tv", "me", "us", "ca", "de", "fr", "nl", "es", "it", "pl", "ru", "cn",
    "in", "br", "mx", "se", "no", "fi", "ch", "at", "be", "cz", "gr", "pt",
    "ro", "hu", "dk", "ie", "il", "tr", "za", "kr", "vn", "id", "th", "my",
    "sg", "hk", "tw", "ar", "cl", "pe", "ve",
    // Two-level public suffixes.
    "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk",
    "com.au", "net.au", "org.au", "edu.au",
    "co.jp", "ne.jp", "or.jp", "ac.jp",
    "com.br", "net.br", "org.br",
    "co.in", "net.in", "org.in",
    "com.cn", "net.cn", "org.cn",
    "co.nz", "net.nz", "org.nz",
    "com.mx", "com.ar", "com.tr", "com.sg", "com.hk", "com.tw",
    "co.kr", "co.za", "com.vn",
    // Private-registry suffixes on the real PSL that matter for
    // third-party hosting analysis.
    "github.io", "gitlab.io", "netlify.app", "vercel.app", "web.app",
    "firebaseapp.com", "herokuapp.com", "azurewebsites.net",
    "cloudfront.net", "appspot.com", "run.app", "b-cdn.net",
    "amazonaws.com",
    // Wildcard and exception rules (the ck classic).
    "*.ck", "!www.ck",
};

}  // namespace

std::size_t PublicSuffixList::FoldHash::operator()(
    std::string_view s) const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= fold(c);
    h *= 0x100000001b3ull;
  }
  return static_cast<std::size_t>(h);
}

bool PublicSuffixList::FoldEqual::operator()(
    std::string_view a, std::string_view b) const noexcept {
  return equal_folded(a, b);
}

void PublicSuffixList::add_rule(std::string_view rule) {
  if (rule.empty()) return;
  if (rule[0] == '!') {
    rules_[std::string(rule.substr(1))] |= kException;
  } else if (rule.starts_with("*.")) {
    rules_[std::string(rule.substr(2))] |= kWildcard;
  } else {
    rules_[std::string(rule)] |= kRule;
  }
}

std::span<const std::string_view> PublicSuffixList::builtin_rules() {
  return kBuiltinRules;
}

PublicSuffixList PublicSuffixList::builtin() {
  PublicSuffixList psl;
  for (const std::string_view r : kBuiltinRules) psl.add_rule(r);
  return psl;
}

std::uint8_t PublicSuffixList::kinds(std::string_view name) const {
  const auto it = rules_.find(name);
  return it == rules_.end() ? 0 : it->second;
}

std::string_view PublicSuffixList::walk(std::string_view name) const {
  // Walk suffixes from the full host down, one rule probe each; the first
  // (longest) suffix a rule claims wins. PSL semantics: an exception "!X"
  // makes X's parent the suffix; a literal rule makes the name itself one;
  // a wildcard "*.X" makes "<label>.X" one, so each step also probes the
  // parent, whose kinds the next step reuses. No rule: the last label
  // (implicit "*").
  std::string_view suffix = name;
  std::uint8_t here = kinds(suffix);
  for (;;) {
    const std::size_t dot = suffix.find('.');
    const std::string_view parent = dot == std::string_view::npos
                                        ? suffix.substr(suffix.size())
                                        : suffix.substr(dot + 1);
    if (here & kException) return parent;
    if ((here & kRule) || dot == std::string_view::npos) return suffix;
    const std::uint8_t up = kinds(parent);
    if (up & kWildcard) return suffix;
    suffix = parent;
    here = up;
  }
}

std::string_view PublicSuffixList::public_suffix(std::string_view host) const {
  return walk(strip_root(host));
}

std::optional<std::string_view> PublicSuffixList::registrable_domain(
    std::string_view host) const {
  host = strip_root(host);
  if (host.ends_with('.')) return std::nullopt;  // an empty last label
  const std::size_t suffix = walk(host).size();
  if (suffix >= host.size()) return std::nullopt;  // host IS a suffix
  // One more label than the suffix.
  const std::string_view rest = host.substr(0, host.size() - suffix - 1);
  const std::size_t dot = rest.rfind('.');
  const std::size_t start = dot == std::string_view::npos ? 0 : dot + 1;
  if (start == rest.size()) return std::nullopt;  // empty label
  return host.substr(start);
}

bool PublicSuffixList::same_site(std::string_view a,
                                 std::string_view b) const {
  const auto ra = registrable_domain(a);
  const auto rb = registrable_domain(b);
  return ra && rb && equal_folded(*ra, *rb);
}

}  // namespace nbv6::web
