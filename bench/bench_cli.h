// One flag grammar for every experiment binary.
//
// Every harness binary declares its knobs here, so they all show up in
// --help and a typo fails loudly instead of being ignored:
//
//   int residences = 256;
//   bench::Cli cli("fleet_fig_cdf", "Fleet population CDF figure");
//   cli.flag_int("residences", &residences, "fleet size");
//   if (!cli.parse(argc, argv)) return cli.exit_code();
//
// Grammar: `--key=value`, `--key value`, bare `--key` for booleans, and
// `--help`. Values go through the same cfgparse lexers the scenario-file
// parser uses, so "what is a valid int" has one answer repo-wide; unknown
// flags, bare arguments and malformed values fail loudly with usage on
// stderr.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "engine/timeline.h"  // cfgparse

namespace nbv6::bench {

class Cli {
 public:
  Cli(std::string program, std::string description)
      : program_(std::move(program)), description_(std::move(description)) {}

  void flag_int(std::string name, int* target, std::string help) {
    flags_.push_back({std::move(name), target, std::move(help)});
  }
  void flag_u64(std::string name, std::uint64_t* target, std::string help) {
    flags_.push_back({std::move(name), target, std::move(help)});
  }
  void flag_double(std::string name, double* target, std::string help) {
    flags_.push_back({std::move(name), target, std::move(help)});
  }
  void flag_string(std::string name, std::string* target, std::string help) {
    flags_.push_back({std::move(name), target, std::move(help)});
  }
  /// Bare `--name` sets true; `--name=true|false|1|0` sets explicitly.
  void flag_bool(std::string name, bool* target, std::string help) {
    flags_.push_back({std::move(name), target, std::move(help)});
  }

  /// True when parsing succeeded and the program should proceed. False
  /// after --help (exit_code() == 0) or a parse error (exit_code() == 2,
  /// message + usage already on stderr).
  bool parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        print_usage(stdout);
        exit_code_ = 0;
        return false;
      }
      if (arg.rfind("--", 0) != 0)
        return fail("unexpected argument '" + std::string(arg) + "'");
      std::string_view body = arg.substr(2);
      std::string_view name = body;
      std::string_view value;
      bool has_value = false;
      if (auto eq = body.find('='); eq != std::string_view::npos) {
        name = body.substr(0, eq);
        value = body.substr(eq + 1);
        has_value = true;
      }
      Flag* f = find_flag(name);
      if (f == nullptr) return fail("unknown flag '--" + std::string(name) + "'");
      if (!has_value && !std::holds_alternative<bool*>(f->target)) {
        if (i + 1 >= argc)
          return fail("flag '--" + std::string(name) + "' needs a value");
        value = argv[++i];
        has_value = true;
      }
      if (!apply(*f, has_value ? value : std::string_view("true")))
        return fail("invalid value '" + std::string(value) + "' for '--" +
                    std::string(name) + "'");
    }
    return true;
  }

  [[nodiscard]] int exit_code() const { return exit_code_; }

  void print_usage(std::FILE* out) const {
    std::fprintf(out, "%s: %s\n\nusage: %s [--flag=value ...]\n\nflags:\n",
                 program_.c_str(), description_.c_str(), program_.c_str());
    for (const auto& f : flags_) {
      std::string label = "--" + f.name + "=" + default_text(f);
      std::fprintf(out, "  %-34s %s\n", label.c_str(), f.help.c_str());
    }
  }

 private:
  using Target =
      std::variant<int*, std::uint64_t*, double*, std::string*, bool*>;
  struct Flag {
    std::string name;
    Target target;
    std::string help;
  };

  Flag* find_flag(std::string_view name) {
    for (auto& f : flags_)
      if (f.name == name) return &f;
    return nullptr;
  }

  static bool apply(Flag& f, std::string_view value) {
    using engine::cfgparse::parse_double;
    using engine::cfgparse::parse_int;
    using engine::cfgparse::parse_u64;
    if (auto* p = std::get_if<int*>(&f.target)) return parse_int(value, **p);
    if (auto* p = std::get_if<std::uint64_t*>(&f.target))
      return parse_u64(value, **p);
    if (auto* p = std::get_if<double*>(&f.target))
      return parse_double(value, **p);
    if (auto* p = std::get_if<std::string*>(&f.target)) {
      **p = std::string(value);
      return true;
    }
    auto* p = std::get_if<bool*>(&f.target);
    if (value == "true" || value == "1") return **p = true, true;
    if (value == "false" || value == "0") return (**p = false), true;
    return false;
  }

  static std::string default_text(const Flag& f) {
    if (auto* p = std::get_if<int*>(&f.target)) return std::to_string(**p);
    if (auto* p = std::get_if<std::uint64_t*>(&f.target))
      return std::to_string(**p);
    if (auto* p = std::get_if<double*>(&f.target)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", **p);
      return buf;
    }
    if (auto* p = std::get_if<std::string*>(&f.target)) return **p;
    return **std::get_if<bool*>(&f.target) ? "true" : "false";
  }

  bool fail(const std::string& message) {
    std::fprintf(stderr, "%s: %s\n\n", program_.c_str(), message.c_str());
    print_usage(stderr);
    exit_code_ = 2;
    return false;
  }

  std::string program_;
  std::string description_;
  std::vector<Flag> flags_;
  int exit_code_ = 0;
};

}  // namespace nbv6::bench
