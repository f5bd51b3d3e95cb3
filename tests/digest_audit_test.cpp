// Digest-coverage auditor: every config field a scenario pass reads must
// be covered by that pass's digest slice, or the content-addressed
// PassCache can serve stale hits when the uncovered field changes — the
// PR 8/9 bug class. The audit records per-field FleetConfig reads (see
// engine/config_tracking.h) separately for each pass's digest computation
// and its body, then checks run_reads ⊆ digest_reads for every committed
// scenario. A negative test pairs the sample pass's real read set with a
// deliberately broken population digest and proves the check catches it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/scenario_pipeline.h"
#include "engine/config_tracking.h"
#include "engine/fleet.h"
#include "engine/pipeline.h"
#include "testutil.h"
#include "traffic/service_catalog.h"

namespace {

using namespace nbv6;
using engine::ConfigField;
using engine::ConfigReadSet;
using engine::ConfigReadTracker;
using engine::FleetConfig;

std::size_t bit(ConfigField f) { return static_cast<std::size_t>(f); }

// --------------------------------------------------- tracking primitives

TEST(ConfigTracking, OffByDefault) {
  FleetConfig cfg;
  // No scope active: reads must not crash and must record nowhere.
  EXPECT_GE(cfg.days, 1);
  ConfigReadTracker::Scope scope;
  EXPECT_TRUE(scope.reads().none());
}

TEST(ConfigTracking, RecordsScalarStructAndWholeValueReads) {
  FleetConfig cfg;
  ConfigReadTracker::Scope scope;
  const int d = cfg.days;
  (void)d;
  (void)cfg.timeline->events.size();      // struct member via operator->
  const engine::Timeline& t = cfg.timeline;  // whole-value conversion
  (void)t;
  EXPECT_TRUE(scope.reads().test(bit(ConfigField::days)));
  EXPECT_TRUE(scope.reads().test(bit(ConfigField::timeline)));
  EXPECT_FALSE(scope.reads().test(bit(ConfigField::seed)));
}

TEST(ConfigTracking, CopyAndWriteDoNotRecord) {
  FleetConfig cfg;
  ConfigReadTracker::Scope scope;
  FleetConfig copy = cfg;  // by-value capture of a config is not a read
  copy.days = 3;
  copy.seed.mut() += 1;
  copy.timeline->events.clear();
  EXPECT_TRUE(scope.reads().none());
}

TEST(ConfigTracking, ScopesNestAndRestore) {
  FleetConfig cfg;
  ConfigReadTracker::Scope outer;
  {
    ConfigReadTracker::Scope inner;
    (void)static_cast<int>(cfg.days);
    EXPECT_TRUE(inner.reads().test(bit(ConfigField::days)));
  }
  // The inner scope's reads stay its own; the outer scope is active again.
  EXPECT_TRUE(outer.reads().none());
  (void)static_cast<std::uint64_t>(cfg.seed);
  EXPECT_TRUE(outer.reads().test(bit(ConfigField::seed)));
}

// ------------------------------------------------------------- the audit

// The audit simulates the full scenario; a small fleet keeps the sweep
// over every committed scenario cheap without changing which fields the
// passes read (field reads depend on code paths, not population size —
// the one day-count-dependent path, absence sampling, keys off `days`,
// which scenarios control).
FleetConfig shrunk(FleetConfig cfg) {
  if (cfg.residences > 8) cfg.residences = 8;
  return cfg;
}

TEST(DigestAudit, EveryCommittedScenarioIsCovered) {
  const auto catalog = traffic::build_paper_catalog();
  const auto files = testutil::scenario_files();
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    std::string err;
    auto cfg = FleetConfig::load(path, &err);
    ASSERT_TRUE(cfg.has_value()) << path << ": " << err;
    const auto audits = core::audit_scenario_passes(shrunk(*cfg), catalog);
    ASSERT_EQ(audits.size(), 5u) << path;
    for (const auto& a : audits) {
      const ConfigReadSet uncovered = core::uncovered_config_reads(a);
      EXPECT_TRUE(uncovered.none())
          << path << ": pass '" << a.pass << "' reads {"
          << core::describe_read_set(a.run_reads)
          << "} but its digest slice only covers {"
          << core::describe_read_set(a.digest_reads) << "}; uncovered: {"
          << core::describe_read_set(uncovered) << "}";
    }
  }
}

TEST(DigestAudit, AuditCoversEveryPipelinePass) {
  // The audit and the production pipeline build from one pass list: a pass
  // registered in make_scenario_pipeline but missing from the audit would
  // go unaudited silently.
  const auto catalog = traffic::build_paper_catalog();
  const auto files = testutil::scenario_files();
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    std::string err;
    auto cfg = FleetConfig::load(path, &err);
    ASSERT_TRUE(cfg.has_value()) << path << ": " << err;
    const FleetConfig small = shrunk(*cfg);
    std::vector<std::string> audited;
    for (const auto& a : core::audit_scenario_passes(small, catalog))
      audited.push_back(a.pass);
    EXPECT_EQ(audited, core::make_scenario_pipeline(small, catalog).schedule())
        << path;
  }
}

TEST(DigestAudit, SamplePassActuallyReadsThePopulationSlice) {
  // Guard against a vacuous auditor: if tracking broke (recording nothing),
  // EveryCommittedScenarioIsCovered would pass trivially. The default
  // config must show sample reading its core fields.
  const auto catalog = traffic::build_paper_catalog();
  const auto audits = core::audit_scenario_passes(shrunk(FleetConfig{}), catalog);
  const auto& sample = audits.front();
  ASSERT_EQ(sample.pass, "sample");
  for (ConfigField f :
       {ConfigField::residences, ConfigField::seed, ConfigField::arrival,
        ConfigField::dual_stack_isp_frac, ConfigField::broken_v6_frac}) {
    EXPECT_TRUE(sample.run_reads.test(bit(f)))
        << "sample did not read " << std::string(to_string(f));
    EXPECT_TRUE(sample.digest_reads.test(bit(f)))
        << "population digest missed " << std::string(to_string(f));
  }
}

TEST(DigestAudit, DigestReadSetsAreSlices) {
  // Guard the other direction: digest read sets are recorded while each
  // pass is built, so a by-value capture of the config that started
  // counting as a read would make every slice "cover" every field and the
  // audit vacuous. Each pass's digest slice must stay its own slice.
  const auto catalog = traffic::build_paper_catalog();
  const auto audits =
      core::audit_scenario_passes(shrunk(FleetConfig{}), catalog);
  ASSERT_EQ(audits.size(), 5u);
  ASSERT_EQ(audits[0].pass, "sample");
  EXPECT_FALSE(audits[0].digest_reads.test(bit(ConfigField::timeline)));
  ASSERT_EQ(audits[1].pass, "timeline");
  ConfigReadSet timeline_slice;
  for (ConfigField f : {ConfigField::seed, ConfigField::days,
                        ConfigField::timeline})
    timeline_slice.set(bit(f));
  EXPECT_EQ(audits[1].digest_reads, timeline_slice)
      << core::describe_read_set(audits[1].digest_reads);
  ASSERT_EQ(audits[2].pass, "simulate");
  EXPECT_TRUE(audits[2].digest_reads.none())
      << core::describe_read_set(audits[2].digest_reads);
}

TEST(DigestAudit, CatchesAnOmittedDigestField) {
  // Seed the PR 8/9 bug on purpose: a population digest that forgets
  // broken_v6_frac. Two configs differing only there would collide in the
  // cache; paired with what the sample pass really reads, the audit must
  // flag the omission.
  const auto catalog = traffic::build_paper_catalog();
  const FleetConfig config = shrunk(FleetConfig{});
  auto broken_population_digest = [](const FleetConfig& cfg,
                                     const traffic::ServiceCatalog& cat) {
    return engine::DigestBuilder()
        .str("population")
        .i64(cfg.residences)
        .i64(cfg.days)
        .u64(cfg.seed)
        .f64(cfg.dual_stack_isp_frac)
        // broken_v6_frac deliberately omitted
        .f64(cfg.heavy_streamer_frac)
        .f64(cfg.background_only_frac)
        .f64(cfg.opt_out_frac)
        .f64(cfg.absence_prob)
        .f64(cfg.activity_scale_min)
        .f64(cfg.activity_scale_max)
        .u64(static_cast<std::uint64_t>(cfg.arrival->mode))
        .i64(cfg.arrival->ticks_per_hour)
        .u64(cat.content_digest())
        .value();
  };
  core::PassReadAudit sample =
      core::audit_scenario_passes(config, catalog).front();
  ASSERT_EQ(sample.pass, "sample");
  {
    ConfigReadTracker::Scope scope;
    (void)broken_population_digest(config, catalog);
    sample.digest_reads = scope.reads();
  }
  const ConfigReadSet uncovered = core::uncovered_config_reads(sample);
  EXPECT_TRUE(uncovered.test(bit(ConfigField::broken_v6_frac)))
      << "auditor failed to flag the seeded omission; uncovered: {"
      << core::describe_read_set(uncovered) << "}";
  // And only that field: the rest of the slice is intact.
  ConfigReadSet expected;
  expected.set(bit(ConfigField::broken_v6_frac));
  EXPECT_EQ(uncovered, expected)
      << "unexpected extra uncovered fields: {"
      << core::describe_read_set(uncovered) << "}";
}

}  // namespace
