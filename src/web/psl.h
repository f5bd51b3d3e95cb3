// Public Suffix List and eTLD+1 (registrable domain) extraction.
//
// The paper's unit of "site" and of resource-domain aggregation is the
// eTLD+1: "a domain name consisting of one label and a public suffix"
// (§4.1, following the Mozilla PSL). Same-site link-click crawling, the
// first- vs third-party split, span/median-contribution, and multi-cloud
// tenant grouping all key on it.
//
// This is a self-contained PSL engine with the standard matching rules
// (normal rules, wildcard rules like *.ck, exception rules like !www.ck)
// preloaded with a representative rule set; callers can add rules.
//
// Every query is one walk over the host's suffixes as string_views, longest
// first, with one probe of a transparently hashed rule table per suffix: no
// label vector, no joined candidate strings, no allocation. Answers are
// views into the caller's `host`, valid as long as it is. Hosts are matched
// the way the zone stores names: one trailing dot is ignored and rules match
// ASCII case-insensitively, so "WWW.Example.COM." has the registrable domain
// "Example.COM" (a view, in the host's own case).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

namespace nbv6::web {

class PublicSuffixList {
 public:
  /// An empty list (only the implicit "*" root rule applies).
  PublicSuffixList() = default;

  /// The built-in rule set: gTLDs, common ccTLDs and second-level public
  /// suffixes, a wildcard rule, and an exception rule, enough to exercise
  /// every branch of the algorithm.
  static PublicSuffixList builtin();
  /// The rules builtin() adds, in PSL syntax.
  static std::span<const std::string_view> builtin_rules();

  /// Add one rule in PSL syntax ("com", "co.uk", "*.ck", "!www.ck").
  void add_rule(std::string_view rule);

  /// Longest matching public suffix of `host` ("a.b.co.uk" -> "co.uk").
  /// Per the PSL algorithm, an unlisted TLD matches the implicit "*" rule.
  [[nodiscard]] std::string_view public_suffix(std::string_view host) const;

  /// Registrable domain: public suffix plus one label
  /// ("x.assets.example.co.uk" -> "example.co.uk"). nullopt when `host`
  /// itself is a public suffix (no registrable domain exists), or when the
  /// label before the suffix or the last label is empty ("a..com",
  /// "example.com..").
  [[nodiscard]] std::optional<std::string_view> registrable_domain(
      std::string_view host) const;

  /// True when `a` and `b` share their registrable domain, compared ASCII
  /// case-insensitively — the paper's same-site test for link clicks and
  /// the first-party test for resources.
  [[nodiscard]] bool same_site(std::string_view a, std::string_view b) const;

 private:
  /// What the rules say about one exact name; a name can carry several.
  enum RuleKind : std::uint8_t {
    kRule = 1,       ///< "X": X is a public suffix
    kWildcard = 2,   ///< "*.X": every "<label>.X" is a public suffix
    kException = 4,  ///< "!X": X is not a public suffix after all
  };
  /// ASCII case-folding FNV-1a; transparent, so string_views probe.
  struct FoldHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept;
  };
  struct FoldEqual {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const noexcept;
  };

  /// The public suffix of `name`, which has no root dot to strip: the one
  /// walk every query runs.
  [[nodiscard]] std::string_view walk(std::string_view name) const;
  /// The rule kinds of `name`, 0 when no rule names it.
  [[nodiscard]] std::uint8_t kinds(std::string_view name) const;

  /// Rules keyed by the name they are about ("ck" for "*.ck", "www.ck" for
  /// "!www.ck").
  std::unordered_map<std::string, std::uint8_t, FoldHash, FoldEqual> rules_;
};

}  // namespace nbv6::web
