// nbv6_lint — repo-specific determinism lint over src/ (and the scenario
// fuzz generator in tests/).
//
// The engine's core promise is bit-identical output for a fixed (config,
// seed) at any thread count. That dies quietly when someone reaches for an
// ambient source of nondeterminism — wall clocks, global RNGs, the
// environment — or serializes a container whose iteration order is
// implementation-defined. This tool bans those by construction:
//
//   random-device    std::random_device anywhere in src/ (seeds must come
//                    from config, never from entropy).
//   rand             rand()/srand() — the C global RNG has hidden state.
//   wall-clock       system_clock / steady_clock / time(nullptr|NULL|0):
//                    results must not depend on when the run happened.
//                    (Benchmarks live in bench/, outside the scanned tree.)
//   getenv           environment reads outside an explicit allowlist:
//                    config comes from files/flags, or goldens diverge
//                    between machines.
//   unordered-iter   range-for over a std::unordered_{map,set} variable in
//                    the files that feed canonical serialization
//                    (core/fleet_analysis.*, the config renderer in
//                    engine/fleet.* and engine/timeline.*, and the fuzz
//                    generator tests/scenario_fuzz.*) — iteration order
//                    there is part of golden bytes.
//   purity-comment   every splitmix64( / stats::Rng( draw site in
//                    engine/timeline.cpp and traffic/arrival.cpp must have
//                    a nearby comment (<= 16 lines above) containing
//                    "deriv", documenting the coordinate-fold derivation
//                    that makes the draw order-independent.
//
// Matching runs on comment- and string-stripped source, so prose like "do
// not use std::random_device" in a header comment never trips the gate.
// A finding is suppressed by putting `// nbv6-lint: allow(<rule>)` on the
// same line — grep-able, reviewed, and per-line.
//
// Modes:
//   nbv6_lint <path> [<path>...]   lint every .h/.cpp/.cc under each
//                                  directory and each named file; print
//                                  findings, exit 1 if any. A file is
//                                  reported under the path as given.
//   nbv6_lint --self-test <dir>    fixture mode: each file's first line
//                                  declares `// nbv6-lint-fixture:
//                                  expect(<rule>)` (or expect(none)); the
//                                  tool verifies each fixture triggers
//                                  exactly the declared rule. All rules
//                                  apply to every fixture (the per-file
//                                  restrictions above are lifted) so the
//                                  rule logic itself is what is tested.
//
// Self-contained by design: no third-party deps, builds with the repo
// toolchain, runs as a ctest (`analysis` label) and a CI gate.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// One source line split into executable code and comment text. Banned
/// tokens match only against `code`; suppression markers and purity
/// contracts look at `comment`.
struct SplitLine {
  std::string code;
  std::string comment;
};

/// Comment/string stripper. Stateful across lines (block comments, raw
/// strings). String and char literal contents are dropped from `code` (the
/// quotes remain, so adjacency never merges tokens).
class Stripper {
 public:
  SplitLine split(const std::string& line) {
    SplitLine out;
    size_t i = 0;
    const size_t n = line.size();
    while (i < n) {
      if (state_ == State::block_comment) {
        size_t end = line.find("*/", i);
        if (end == std::string::npos) {
          out.comment.append(line, i, n - i);
          return out;
        }
        out.comment.append(line, i, end - i);
        state_ = State::code;
        i = end + 2;
        continue;
      }
      if (state_ == State::raw_string) {
        size_t end = line.find(raw_close_, i);
        if (end == std::string::npos) return out;
        i = end + raw_close_.size();
        out.code += "\")";  // keep the literal's closing tokens
        state_ = State::code;
        continue;
      }
      const char c = line[i];
      if (c == '/' && i + 1 < n && line[i + 1] == '/') {
        out.comment.append(line, i + 2, n - (i + 2));
        return out;
      }
      if (c == '/' && i + 1 < n && line[i + 1] == '*') {
        state_ = State::block_comment;
        i += 2;
        continue;
      }
      if (c == 'R' && i + 1 < n && line[i + 1] == '"' &&
          !is_ident_char(i > 0 ? line[i - 1] : '\0')) {
        size_t open = line.find('(', i + 2);
        if (open != std::string::npos) {
          raw_close_ = ")" + line.substr(i + 2, open - (i + 2)) + "\"";
          out.code += "R\"(";
          state_ = State::raw_string;
          // Content up to a same-line close is skipped by the raw branch.
          i = open + 1;
          continue;
        }
      }
      if (c == '"' || c == '\'') {
        out.code += c;
        const char quote = c;
        ++i;
        while (i < n) {
          if (line[i] == '\\') {
            i += 2;
            continue;
          }
          if (line[i] == quote) {
            out.code += quote;
            ++i;
            break;
          }
          ++i;
        }
        continue;
      }
      out.code += c;
      ++i;
    }
    return out;
  }

 private:
  static bool is_ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  }
  enum class State { code, block_comment, raw_string };
  State state_ = State::code;
  std::string raw_close_;
};

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True if `token` appears in `code` as a whole identifier.
bool has_token(const std::string& code, std::string_view token) {
  size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident(code[pos - 1]);
    const size_t after = pos + token.size();
    const bool right_ok = after >= code.size() || !is_ident(code[after]);
    if (left_ok && right_ok) return true;
    pos = after;
  }
  return false;
}

/// True if `token` appears as a whole identifier immediately followed by
/// '(' (spaces allowed): a call of that name.
bool has_call(const std::string& code, std::string_view token) {
  size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident(code[pos - 1]);
    size_t after = pos + token.size();
    while (after < code.size() && code[after] == ' ') ++after;
    if (left_ok && after < code.size() && code[after] == '(') return true;
    pos = pos + token.size();
  }
  return false;
}

/// time(nullptr) / time(NULL) / time(0): the wall-clock call shape. A
/// plain `time(` alone would flag unrelated functions named time.
bool has_wall_time_call(const std::string& code) {
  static const std::regex re(R"((^|[^A-Za-z0-9_])time\s*\(\s*(nullptr|NULL|0)\s*\))");
  return std::regex_search(code, re);
}

bool path_contains(const std::string& rel, std::string_view needle) {
  return rel.find(needle) != std::string::npos;
}

struct Options {
  bool all_rules_everywhere = false;  ///< self-test mode: lift file scoping
};

/// Files whose iteration order becomes golden bytes.
bool canonical_serialization_file(const std::string& rel) {
  return path_contains(rel, "core/fleet_analysis.") ||
         path_contains(rel, "engine/fleet.") ||
         path_contains(rel, "engine/timeline.") ||
         path_contains(rel, "tests/scenario_fuzz.");
}

/// Files under the purity comment contract for RNG draw sites.
bool purity_contract_file(const std::string& rel) {
  return path_contains(rel, "engine/timeline.cpp") ||
         path_contains(rel, "traffic/arrival.cpp");
}

/// getenv allowlist (relative-path substrings). Currently empty on
/// purpose: src/ reads no environment. Additions belong in review, with a
/// reason, not behind a suppression comment.
bool getenv_allowed(const std::string& rel) {
  static const std::vector<std::string> allow = {};
  return std::any_of(allow.begin(), allow.end(), [&](const std::string& a) {
    return path_contains(rel, a);
  });
}

bool suppressed(const std::string& comment, std::string_view rule) {
  const std::string marker = "nbv6-lint: allow(" + std::string(rule) + ")";
  return comment.find(marker) != std::string::npos;
}

void lint_file(const fs::path& path, const std::string& rel,
               const Options& opt, std::vector<Finding>& findings) {
  std::ifstream in(path);
  if (!in) {
    findings.push_back({rel, 0, "io", "cannot read file"});
    return;
  }
  std::vector<std::string> raw;
  std::string line;
  while (std::getline(in, line)) raw.push_back(line);

  Stripper stripper;
  std::vector<SplitLine> split;
  split.reserve(raw.size());
  for (const auto& l : raw) split.push_back(stripper.split(l));

  auto add = [&](size_t idx, std::string_view rule, std::string msg) {
    if (suppressed(split[idx].comment, rule)) return;
    findings.push_back(
        {rel, static_cast<int>(idx + 1), std::string(rule), std::move(msg)});
  };

  // Declared unordered container names (pass 1 of unordered-iter). A
  // single-line-declaration heuristic: good enough for the three canonical
  // files, and a miss fails loudly in review, not silently in goldens.
  std::set<std::string> unordered_names;
  static const std::regex decl_re(
      R"(unordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s+([A-Za-z_]\w*))");
  static const std::regex range_for_re(
      R"(for\s*\([^;:]*:\s*([A-Za-z_]\w*(?:\.\w+|->\w+)*)\s*\))");

  const bool canonical =
      opt.all_rules_everywhere || canonical_serialization_file(rel);
  const bool purity = opt.all_rules_everywhere || purity_contract_file(rel);

  if (canonical) {
    for (const auto& sl : split) {
      auto begin = std::sregex_iterator(sl.code.begin(), sl.code.end(), decl_re);
      for (auto it = begin; it != std::sregex_iterator(); ++it)
        unordered_names.insert((*it)[1].str());
    }
  }

  for (size_t i = 0; i < split.size(); ++i) {
    const std::string& code = split[i].code;
    if (code.empty()) continue;

    if (has_token(code, "random_device"))
      add(i, "random-device",
          "std::random_device is banned: seeds come from config, not "
          "entropy");
    if (has_call(code, "rand") || has_call(code, "srand"))
      add(i, "rand",
          "rand()/srand() are banned: global hidden RNG state breaks "
          "reproducibility");
    if (has_token(code, "system_clock") || has_token(code, "steady_clock"))
      add(i, "wall-clock",
          "wall-clock reads are banned in src/: results must not depend on "
          "when the run happened");
    if (has_wall_time_call(code))
      add(i, "wall-clock", "time(nullptr) is banned: wall-clock seed/state");
    if (has_call(code, "getenv") && !getenv_allowed(rel))
      add(i, "getenv",
          "environment reads are banned outside the allowlist: config "
          "comes from files/flags");

    if (canonical && !unordered_names.empty()) {
      std::smatch m;
      if (std::regex_search(code, m, range_for_re) &&
          unordered_names.count(m[1].str()) != 0)
        add(i, "unordered-iter",
            "iterating '" + m[1].str() +
                "' (unordered container) in a canonical-serialization "
                "file: iteration order is implementation-defined");
    }

    if (purity &&
        (code.find("splitmix64(") != std::string::npos ||
         code.find("Rng(") != std::string::npos)) {
      // Contract: a comment within the 16 preceding lines (or this line)
      // must mention the derivation that makes the draw order-independent.
      bool documented = false;
      const size_t first = i >= 16 ? i - 16 : 0;
      for (size_t j = first; j <= i && !documented; ++j)
        documented = split[j].comment.find("deriv") != std::string::npos;
      if (!documented)
        add(i, "purity-comment",
            "RNG draw site without a nearby 'derivation' comment: document "
            "the coordinate fold that keeps this draw order-independent");
    }
  }
}

std::vector<fs::path> source_files(const fs::path& root) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".cpp" || ext == ".cc")
      files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string relative_to(const fs::path& p, const fs::path& root) {
  return fs::relative(p, root).generic_string();
}

int run_lint(const std::vector<std::string>& paths) {
  std::vector<Finding> findings;
  for (const auto& p : paths) {
    const fs::path root(p);
    if (fs::is_regular_file(root)) {
      lint_file(root, root.generic_string(), Options{}, findings);
      continue;
    }
    if (!fs::is_directory(root)) {
      std::fprintf(stderr, "nbv6_lint: no such file or directory: %s\n",
                   p.c_str());
      return 2;
    }
    for (const auto& f : source_files(root))
      lint_file(f, relative_to(f, root), Options{}, findings);
  }
  for (const auto& f : findings)
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  if (findings.empty()) {
    std::printf("nbv6_lint: clean\n");
    return 0;
  }
  std::printf("nbv6_lint: %zu finding(s)\n", findings.size());
  return 1;
}

int run_self_test(const std::string& dir) {
  const fs::path root(dir);
  if (!fs::exists(root)) {
    std::fprintf(stderr, "nbv6_lint: no such directory: %s\n", dir.c_str());
    return 2;
  }
  int failures = 0;
  int checked = 0;
  for (const auto& f : source_files(root)) {
    std::ifstream in(f);
    std::string first;
    std::getline(in, first);
    const std::string tag = "nbv6-lint-fixture: expect(";
    const size_t at = first.find(tag);
    if (at == std::string::npos) {
      std::fprintf(stderr, "FAIL %s: missing fixture marker '%s<rule>)'\n",
                   f.string().c_str(), tag.c_str());
      ++failures;
      continue;
    }
    const size_t close = first.find(')', at);
    const std::string expect =
        first.substr(at + tag.size(), close - (at + tag.size()));

    std::vector<Finding> findings;
    Options opt;
    opt.all_rules_everywhere = true;
    lint_file(f, relative_to(f, root), opt, findings);
    ++checked;

    std::set<std::string> rules;
    for (const auto& fd : findings) rules.insert(fd.rule);

    bool ok;
    if (expect == "none") {
      ok = findings.empty();
    } else {
      // Exactly the declared rule, at least once, and nothing else.
      ok = !findings.empty() && rules.size() == 1 && *rules.begin() == expect;
    }
    if (!ok) {
      std::fprintf(stderr, "FAIL %s: expected '%s', got %zu finding(s):\n",
                   f.string().c_str(), expect.c_str(), findings.size());
      for (const auto& fd : findings)
        std::fprintf(stderr, "  %s:%d: [%s] %s\n", fd.file.c_str(), fd.line,
                     fd.rule.c_str(), fd.message.c_str());
      ++failures;
    }
  }
  if (checked == 0) {
    std::fprintf(stderr, "nbv6_lint: no fixtures found under %s\n",
                 dir.c_str());
    return 2;
  }
  std::printf("nbv6_lint --self-test: %d fixture(s), %d failure(s)\n", checked,
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::fprintf(stderr,
                 "usage: nbv6_lint <dir-or-file> [<dir-or-file>...]\n"
                 "       nbv6_lint --self-test <fixtures-dir>\n");
    return 2;
  }
  if (args[0] == "--self-test") {
    if (args.size() != 2) {
      std::fprintf(stderr, "usage: nbv6_lint --self-test <fixtures-dir>\n");
      return 2;
    }
    return run_self_test(args[1]);
  }
  return run_lint(args);
}
