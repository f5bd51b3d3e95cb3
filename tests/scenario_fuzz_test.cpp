// Differential scenario fuzzing (the ctest `fuzz` label).
//
// Each generated config runs the full invariant battery in
// testutil::fuzz_check_scenario: parse/render round trip, lazy vs
// materialized day-plan cells, 1/4/8-lane byte-identical replays,
// shard-reuse parity on a twin-primed cache, and windowed metric
// finiteness. The scenario count and base seed come from
// NBV6_FUZZ_SCENARIOS / NBV6_FUZZ_SEED so CI can run a deep sweep while
// the default local run stays fast; a failure prints the offending config
// text verbatim, which is the whole reproducer.
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "scenario_fuzz.h"
#include "testutil.h"
#include "traffic/arrival.h"
#include "traffic/service_catalog.h"

namespace nbv6 {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

TEST(ScenarioFuzz, GeneratedScenariosAlwaysParse) {
  // Generation is validity-directed: every emitted text must parse. A
  // rejection here means the generator and the grammar disagree — exactly
  // the silent drift this test exists to catch.
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const std::string text = testutil::generate_scenario_text(seed);
    std::string error;
    auto cfg = engine::FleetConfig::parse(text, &error);
    ASSERT_TRUE(cfg.has_value())
        << "seed " << seed << ": " << error << "\n" << text;
  }
}

TEST(ScenarioFuzz, GeneratorCoversTheEventGrammar) {
  // Across a modest seed range, every event kind and every window shape
  // must appear — otherwise the fuzzer silently stopped exercising part of
  // the vocabulary.
  std::set<std::string> kinds;
  std::set<traffic::ArrivalMode> modes;
  bool saw_day = false, saw_open = false, saw_closed = false;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    auto cfg =
        engine::FleetConfig::parse(testutil::generate_scenario_text(seed));
    ASSERT_TRUE(cfg.has_value());
    modes.insert(cfg->arrival->mode);
    for (const auto& ev : cfg->timeline->events) {
      kinds.insert(engine::to_string(ev.kind));
      if (ev.start_day == ev.end_day) saw_day = true;
      else if (ev.end_day == std::numeric_limits<int>::max()) saw_open = true;
      else saw_closed = true;
    }
  }
  EXPECT_EQ(kinds.size(), 11u) << "missing event kinds in generator output";
  EXPECT_EQ(modes.size(), 3u) << "missing arrival modes in generator output";
  EXPECT_TRUE(saw_day);
  EXPECT_TRUE(saw_open);
  EXPECT_TRUE(saw_closed);
}

TEST(ScenarioFuzz, RendererRoundTripsCommittedScenarios) {
  // The canonical renderer must be a lossless fixed point for every
  // committed scenario, not just generated ones — it is the promotion path
  // from surviving fuzz config to examples/scenarios/.
  const auto files = testutil::scenario_files();
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    auto text = testutil::read_file(path);
    ASSERT_TRUE(text.has_value()) << path;
    auto err = engine::check_parse_round_trip(*text);
    EXPECT_FALSE(err.has_value())
        << testutil::scenario_stem(path) << ": " << err.value_or("");
  }
}

TEST(ScenarioFuzz, DifferentialInvariantsHoldOnGeneratedScenarios) {
  const auto catalog = traffic::build_paper_catalog();
  const std::uint64_t count = env_u64("NBV6_FUZZ_SCENARIOS", 64);
  const std::uint64_t base = env_u64("NBV6_FUZZ_SEED", 0x1a5c0ffeeull);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string text = testutil::generate_scenario_text(base + i);
    auto err = testutil::fuzz_check_scenario(text, catalog);
    ASSERT_FALSE(err.has_value())
        << "scenario seed " << (base + i) << " failed: " << *err
        << "\n---- config ----\n" << text;
    if ((i + 1) % 32 == 0)
      std::fprintf(stderr, "  fuzz: %llu/%llu scenarios clean\n",
                   static_cast<unsigned long long>(i + 1),
                   static_cast<unsigned long long>(count));
  }
}

}  // namespace
}  // namespace nbv6
