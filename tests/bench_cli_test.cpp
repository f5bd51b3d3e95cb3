// The shared experiment-harness flag grammar (bench/bench_cli.h): one
// parser, one --help. Also the environment scale knobs (bench_common.h),
// which go through the same lexer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_cli.h"
#include "bench_common.h"

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

TEST(BenchEnv, UnsetUsesFallbackAndValidValueParses) {
  ::unsetenv("NBV6_TEST_KNOB");
  EXPECT_EQ(nbv6::bench::env_int("NBV6_TEST_KNOB", 274), 274);
  ::setenv("NBV6_TEST_KNOB", "30", 1);
  EXPECT_EQ(nbv6::bench::env_int("NBV6_TEST_KNOB", 274), 30);
  ::unsetenv("NBV6_TEST_KNOB");
}

TEST(BenchEnvDeathTest, MalformedOrNonPositiveValueExitsNamingTheVariable) {
  // Each of these used to run: atoi read "abc" and "" as 0 days and "1e5"
  // as a 1-site universe.
  for (const char* bad : {"abc", "1e5", "", "0", "-3", "12x"}) {
    ::setenv("NBV6_DAYS", bad, 1);
    EXPECT_EXIT(nbv6::bench::env_int("NBV6_DAYS", 274),
                ::testing::ExitedWithCode(2), "NBV6_DAYS")
        << "value '" << bad << "'";
  }
  ::unsetenv("NBV6_DAYS");
}

}  // namespace
