// ReferencePsl: the allocating PSL algorithm web::PublicSuffixList ran
// before its walk over string_view suffixes, kept as the reference
// web_psl_test diffs that walk against. It splits the host into labels,
// joins every candidate suffix (and its wildcard parent) into a fresh
// string, and probes three case-sensitive rule sets. It predates the walk's
// root-dot and case normalization, so compare the two on canonical hosts
// (lowercase, no trailing dot) only.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace nbv6::testutil {

/// Split a hostname into labels ("a.b.c" -> {"a","b","c"}).
inline std::vector<std::string_view> split_labels(std::string_view host) {
  std::vector<std::string_view> labels;
  size_t start = 0;
  while (start <= host.size()) {
    size_t dot = host.find('.', start);
    if (dot == std::string_view::npos) {
      labels.push_back(host.substr(start));
      break;
    }
    labels.push_back(host.substr(start, dot - start));
    start = dot + 1;
  }
  return labels;
}

class ReferencePsl {
 public:
  explicit ReferencePsl(std::span<const std::string_view> rules) {
    for (const std::string_view rule : rules) add_rule(rule);
  }

  void add_rule(std::string_view rule) {
    if (rule.empty()) return;
    if (rule[0] == '!') {
      exception_rules_.emplace(rule.substr(1));
    } else if (rule.rfind("*.", 0) == 0) {
      wildcard_rules_.emplace(rule.substr(2));
    } else {
      rules_.emplace(rule);
    }
  }

  [[nodiscard]] std::string public_suffix(std::string_view host) const {
    auto labels = split_labels(host);
    if (labels.empty()) return std::string(host);

    int best = -1;  // index into labels where the suffix starts
    for (size_t start = 0; start < labels.size(); ++start) {
      std::string suffix;
      for (size_t i = start; i < labels.size(); ++i) {
        if (!suffix.empty()) suffix += '.';
        suffix += labels[i];
      }
      if (exception_rules_.contains(suffix)) {
        best = static_cast<int>(start) + 1;
        break;
      }
      if (rules_.contains(suffix)) {
        best = static_cast<int>(start);
        break;
      }
      if (start + 1 < labels.size()) {
        std::string parent;
        for (size_t i = start + 1; i < labels.size(); ++i) {
          if (!parent.empty()) parent += '.';
          parent += labels[i];
        }
        if (wildcard_rules_.contains(parent)) {
          best = static_cast<int>(start);
          break;
        }
      }
    }
    if (best < 0) best = static_cast<int>(labels.size()) - 1;  // implicit "*"

    std::string out;
    for (size_t i = static_cast<size_t>(best); i < labels.size(); ++i) {
      if (!out.empty()) out += '.';
      out += labels[i];
    }
    return out;
  }

  [[nodiscard]] std::optional<std::string> registrable_domain(
      std::string_view host) const {
    std::string suffix = public_suffix(host);
    if (suffix.size() >= host.size()) return std::nullopt;
    std::string_view rest = host.substr(0, host.size() - suffix.size() - 1);
    size_t last_dot = rest.rfind('.');
    std::string_view label =
        last_dot == std::string_view::npos ? rest : rest.substr(last_dot + 1);
    if (label.empty()) return std::nullopt;
    return std::string(label) + "." + suffix;
  }

 private:
  std::unordered_set<std::string> rules_;
  std::unordered_set<std::string> wildcard_rules_;   // stored without "*."
  std::unordered_set<std::string> exception_rules_;  // stored without "!"
};

}  // namespace nbv6::testutil
