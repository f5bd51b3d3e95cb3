// Golden-replay conformance: every committed scenario runs sample →
// timeline → simulate → analyze, serializes canonically, and must match
// the committed golden byte for byte — at 1, 4, and 8 worker lanes.
//
// This pins the entire pipeline's numeric output: the deterministic
// sampler, the per-(seed,index,day) timeline derivation, the sharded
// simulation, the monitor reduction, metric extraction, the Wilcoxon
// panels with Holm correction, and the streaming CDFs. Any refactor that
// changes a single double anywhere surfaces as a one-line diff here. The
// CI matrix runs this suite under gcc and clang in Debug and Release, so
// the goldens also assert cross-compiler, cross-optimization stability
// (the build sets -ffp-contract=off to keep that true on FMA hardware).
//
// Regenerate after an intentional behaviour change with:
//   ./build/golden_replay_test --update
// then review the golden diff like any other code change.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/fleet.h"
#include "testutil.h"
#include "traffic/service_catalog.h"

namespace {

bool g_update_goldens = false;

using nbv6::testutil::canonical_serialize;
using nbv6::testutil::first_diff;
using nbv6::testutil::run_scenario;

TEST(GoldenReplay, ScenariosExistAndParse) {
  auto files = nbv6::testutil::scenario_files();
  // The ISSUE floor: at least six committed scenario files.
  ASSERT_GE(files.size(), 6u) << "scenarios missing from "
                              << nbv6::testutil::scenarios_dir();
  for (const auto& f : files) {
    SCOPED_TRACE(f);
    auto cfg = nbv6::engine::FleetConfig::load(f);
    EXPECT_TRUE(cfg.has_value()) << "unparseable scenario: " << f;
  }
}

TEST(GoldenReplay, BitIdenticalAcrossLanesAndMatchesGolden) {
  auto catalog = nbv6::traffic::build_paper_catalog();
  auto files = nbv6::testutil::scenario_files();
  ASSERT_FALSE(files.empty());

  for (const auto& file : files) {
    const std::string stem = nbv6::testutil::scenario_stem(file);
    SCOPED_TRACE(stem);
    auto cfg = nbv6::engine::FleetConfig::load(file);
    ASSERT_TRUE(cfg.has_value());

    // The same scenario at three lane counts: serializations must be
    // byte-identical (thread count can never change a replay).
    std::string reference;
    for (int lanes : {1, 4, 8}) {
      auto run = run_scenario(*cfg, catalog, lanes);
      std::string text = canonical_serialize(run);
      if (lanes == 1) {
        reference = std::move(text);
        ASSERT_FALSE(reference.empty());
      } else {
        EXPECT_EQ(text, reference)
            << "lane count " << lanes << " diverged from sequential:\n"
            << first_diff(text, reference);
      }
    }

    const std::string golden_path =
        nbv6::testutil::golden_dir() + "/" + stem + ".golden.txt";
    if (g_update_goldens) {
      ASSERT_TRUE(nbv6::testutil::write_file(golden_path, reference))
          << "cannot write " << golden_path;
      continue;
    }
    auto golden = nbv6::testutil::read_file(golden_path);
    ASSERT_TRUE(golden.has_value())
        << "missing golden " << golden_path
        << " — run ./golden_replay_test --update and commit the result";
    EXPECT_EQ(reference, *golden)
        << "replay diverged from golden " << golden_path << ":\n"
        << first_diff(reference, *golden)
        << "\nIf the change is intentional, regenerate with --update and "
           "review the golden diff.";
  }
}

// Lazy day-plan evaluation (the engine's path) and up-front materialized
// plans (testutil's reference) are two routes to the same pure function;
// a full scenario run must serialize byte-identically either way, at every
// lane count. A few timeline-heavy scenarios suffice here — the plan layer
// itself is compared cell by cell across all scenarios in timeline_test.
TEST(GoldenReplay, LazyAndMaterializedPlansAreByteIdentical) {
  auto catalog = nbv6::traffic::build_paper_catalog();
  // One batch-mode timeline scenario plus the open-loop trio: the lazy and
  // materialized plan routes must agree for the tick-sliced arrival engine
  // and both new event kinds, not just the original per-hour batch.
  for (const char* name : {"nat64_migration", "open_loop_ramp", "flash_crowd",
                           "uniform_arrivals"}) {
    SCOPED_TRACE(name);
    const std::string file =
        nbv6::testutil::scenarios_dir() + "/" + name + ".cfg";
    auto cfg = nbv6::engine::FleetConfig::load(file);
    ASSERT_TRUE(cfg.has_value());

    const std::string lazy =
        canonical_serialize(run_scenario(*cfg, catalog, 1));
    ASSERT_FALSE(lazy.empty());
    for (int lanes : {1, 4, 8}) {
      auto run = run_scenario(*cfg, catalog, lanes,
                              nbv6::testutil::PlanSource::materialized);
      std::string text = canonical_serialize(run);
      EXPECT_EQ(text, lazy)
          << "materialized plans at " << lanes << " lane(s) diverged from the "
          << "lazy run:\n" << first_diff(text, lazy);
    }
  }
}

// `--update` hygiene: regenerating a golden must be idempotent. Two fully
// independent runs of the same scenario (fresh config load, fresh engine,
// fresh serialization) must produce identical bytes — if they don't, any
// golden produced by --update is a coin flip and the whole conformance
// suite is built on sand. This is stronger than SerializerIsPure below,
// which only re-serializes one in-memory run.
TEST(GoldenReplay, UpdateIsIdempotentAcrossIndependentRuns) {
  auto catalog = nbv6::traffic::build_paper_catalog();
  auto files = nbv6::testutil::scenario_files();
  ASSERT_FALSE(files.empty());
  for (const auto& file : files) {
    const std::string stem = nbv6::testutil::scenario_stem(file);
    SCOPED_TRACE(stem);
    std::string first;
    for (int pass = 0; pass < 2; ++pass) {
      auto cfg = nbv6::engine::FleetConfig::load(file);
      ASSERT_TRUE(cfg.has_value());
      std::string text = canonical_serialize(run_scenario(*cfg, catalog, 4));
      if (pass == 0) {
        first = std::move(text);
        ASSERT_FALSE(first.empty());
      } else {
        EXPECT_EQ(text, first)
            << "two independent runs of " << stem << " diverged:\n"
            << first_diff(text, first);
      }
    }
  }
}

// Repeated serialization of one in-memory run must be a fixed point —
// guards against the serializer itself consuming hidden state.
TEST(GoldenReplay, SerializerIsPure) {
  auto catalog = nbv6::traffic::build_paper_catalog();
  nbv6::engine::FleetConfig cfg;
  cfg.residences = 6;
  cfg.days = 8;
  cfg.seed = 3;
  auto run = run_scenario(cfg, catalog, 2);
  EXPECT_EQ(canonical_serialize(run), canonical_serialize(run));
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--update") g_update_goldens = true;
  return RUN_ALL_TESTS();
}
