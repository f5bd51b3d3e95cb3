// The shared experiment-harness flag grammar (bench/bench_cli.h): one
// parser, one --help. Also the flag checks of bench_common.h.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bench_cli.h"
#include "bench_common.h"
#include "web/universe.h"

namespace {

using nbv6::bench::Cli;

/// argv builder: keeps the strings alive and hands out char* the way
/// main() receives them.
struct Argv {
  explicit Argv(std::vector<std::string> args) : store(std::move(args)) {
    ptrs.push_back(const_cast<char*>("prog"));
    for (auto& a : store) ptrs.push_back(a.data());
  }
  int argc() { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> store;
  std::vector<char*> ptrs;
};

TEST(BenchCli, ParsesEqualsAndSpaceForms) {
  int n = 1;
  std::uint64_t seed = 0;
  double frac = 0.0;
  std::string name = "default";
  Cli cli("t", "test");
  cli.flag_int("n", &n, "");
  cli.flag_u64("seed", &seed, "");
  cli.flag_double("frac", &frac, "");
  cli.flag_string("name", &name, "");
  Argv a({"--n=42", "--seed", "123456789012345", "--frac=0.25", "--name",
          "abc"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(n, 42);
  EXPECT_EQ(seed, 123456789012345ull);
  EXPECT_DOUBLE_EQ(frac, 0.25);
  EXPECT_EQ(name, "abc");
}

TEST(BenchCli, BoolFlagsBareAndExplicit) {
  bool on = false;
  bool off = true;
  Cli cli("t", "test");
  cli.flag_bool("on", &on, "");
  cli.flag_bool("off", &off, "");
  Argv a({"--on", "--off=false"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_TRUE(on);
  EXPECT_FALSE(off);
}

TEST(BenchCli, UnknownFlagFailsWithExitCode2) {
  Cli cli("t", "test");
  Argv a({"--nope=1"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.exit_code(), 2);
}

TEST(BenchCli, MalformedValueFails) {
  int n = 0;
  Cli cli("t", "test");
  cli.flag_int("n", &n, "");
  Argv a({"--n=not_a_number"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.exit_code(), 2);
}

TEST(BenchCli, MissingValueFails) {
  int n = 0;
  Cli cli("t", "test");
  cli.flag_int("n", &n, "");
  Argv a({"--n"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.exit_code(), 2);
}

TEST(BenchCli, HelpReturnsFalseWithExitCode0) {
  Cli cli("t", "test");
  Argv a({"--help"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.exit_code(), 0);
}

TEST(BenchCli, BareArgumentFailsWithExitCode2) {
  int n = 0;
  Cli cli("t", "test");
  cli.flag_int("n", &n, "");
  Argv a({"--n=1", "out.csv"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.exit_code(), 2);
}

// Fleet-size flags bypass FleetConfig::parse, so the binaries hold the
// assembled config to the same rules through fleet_flags_valid. Unchecked,
// a negative fleet dies in std::length_error and a zero horizon runs with
// events at or past it.
TEST(BenchFleetFlags, RejectWhatTheScenarioParserRejects) {
  for (const char* bad : {"--residences=-3", "--residences=0", "--days=0"}) {
    auto cfg = nbv6::bench::default_bench_fleet();
    int threads = 0;
    Cli cli("t", "test");
    nbv6::bench::register_fleet_flags(cli, cfg, threads);
    Argv a({bad});
    ASSERT_TRUE(cli.parse(a.argc(), a.argv())) << bad;
    EXPECT_FALSE(nbv6::bench::fleet_flags_valid(cfg)) << bad;
    // The message is the one parse() gives for the same config as text.
    std::string error;
    EXPECT_FALSE(nbv6::engine::FleetConfig::parse(
        nbv6::engine::to_config_text(cfg), &error));
    EXPECT_EQ(cfg.check(), error) << bad;
  }
  auto cfg = nbv6::bench::default_bench_fleet();
  EXPECT_TRUE(nbv6::bench::fleet_flags_valid(cfg));
}

// Lane-count flags used to reach ThreadPool unchecked, so --threads=100000
// asked the OS for about 100k threads. lanes_flag rejects the value before
// any pool exists, with a message naming the flag.
TEST(BenchLaneFlags, RejectNegativeAndAboveTheBoundNamingTheFlag) {
  const int above = nbv6::engine::kMaxLanes + 1;
  for (const auto& [flag, value] :
       {std::pair{"threads", above}, std::pair{"lanes", -1},
        std::pair{"threads", 100000}}) {
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(nbv6::bench::lanes_flag(flag, value).has_value()) << flag;
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(std::string("--") + flag), std::string::npos) << err;
  }
}

// The paper binary's scale flags, --sites and --days: a malformed or empty
// value fails the parse and a value below 1 fails positive_flag, each with
// a message naming the flag (the binary then exits 2), so a typo never runs
// a 0-day or 1-site experiment.
TEST(BenchScaleFlags, RejectMalformedEmptyAndNonPositiveNamingTheFlag) {
  for (const char* flag : {"sites", "days"}) {
    for (const char* bad : {"0", "-3", "x", "", "1e5", "12x"}) {
      int sites = 100000;
      int days = 274;
      Cli cli("t", "test");
      cli.flag_int("sites", &sites, "");
      cli.flag_int("days", &days, "");
      Argv a({std::string("--") + flag + "=" + bad});
      ::testing::internal::CaptureStderr();
      const bool ok = cli.parse(a.argc(), a.argv()) &&
                      nbv6::bench::positive_flag("sites", sites) &&
                      nbv6::bench::positive_flag("days", days);
      const std::string err = ::testing::internal::GetCapturedStderr();
      EXPECT_FALSE(ok) << flag << "=" << bad;
      EXPECT_NE(err.find(std::string("--") + flag), std::string::npos)
          << flag << "=" << bad << ": " << err;
    }
  }
  EXPECT_TRUE(nbv6::bench::positive_flag("sites", 1));
}

// --sites above web::kMaxSites fails positive_flag too, with a message
// naming the flag and the bound, so paper exits 2 before it builds an input;
// the bound itself passes (no universe is built here, at any size).
TEST(BenchScaleFlags, RejectSitesAboveTheUniverseBoundNamingIt) {
  using nbv6::web::kMaxSites;
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(nbv6::bench::positive_flag("sites", kMaxSites + 1, kMaxSites));
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--sites"), std::string::npos) << err;
  EXPECT_NE(err.find(std::to_string(kMaxSites)), std::string::npos) << err;
  EXPECT_TRUE(nbv6::bench::positive_flag("sites", kMaxSites, kMaxSites));
  EXPECT_EQ(kMaxSites, 10'000'000);
}

}  // namespace
