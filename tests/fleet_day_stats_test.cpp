// Day-resolved session statistics: the per-day SimulationStats series the
// simulator accumulates, its shard merge in the fleet engine, and the
// windowed analyses it unblocks — finite he_failure_rate (and session /
// outage counts) inside any DayWindow, feeding real pre/post panels across
// the NAT64 migration scenario. Also pins the degenerate-window hardening:
// inverted or out-of-horizon windows are defined no-results, never NaN
// panels or silent wrong answers.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "core/fleet_analysis.h"
#include "engine/fleet.h"
#include "testutil.h"
#include "traffic/service_catalog.h"

namespace nbv6 {
namespace {

/// One shared run of the committed NAT64 migration scenario (24 homes x
/// 42 days, migration staggered across days 12-30) — the PR's acceptance
/// scenario, simulated once for the whole suite.
class Nat64ScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto catalog = traffic::build_paper_catalog();
    auto cfg = engine::FleetConfig::load(testutil::scenarios_dir() +
                                         "/nat64_migration.cfg");
    ASSERT_TRUE(cfg.has_value());
    cfg_ = *cfg;
    engine::ThreadPool pool(1);
    result_ = testutil::simulate_scenario(cfg_, catalog, &pool);
  }
  static void TearDownTestSuite() { result_.reset(); }

  static engine::FleetConfig cfg_;
  static std::optional<engine::FleetResult> result_;
};

engine::FleetConfig Nat64ScenarioTest::cfg_;
std::optional<engine::FleetResult> Nat64ScenarioTest::result_;

TEST_F(Nat64ScenarioTest, DailySeriesSumsToHorizonTotals) {
  ASSERT_TRUE(result_.has_value());
  traffic::DaySessionStats fleet_sum;
  for (const auto& run : result_->residences) {
    ASSERT_EQ(run.stats.daily.size(), static_cast<size_t>(cfg_.days))
        << run.config.name;
    traffic::DaySessionStats sum;
    for (const auto& d : run.stats.daily) sum += d;
    EXPECT_EQ(sum.sessions, run.stats.sessions) << run.config.name;
    EXPECT_EQ(sum.he_failures, run.stats.he_failures) << run.config.name;
    EXPECT_EQ(sum.outage_suppressed, run.stats.outage_suppressed)
        << run.config.name;
    fleet_sum += sum;
  }
  // The engine's reduction merged the same series fleet-wide.
  ASSERT_EQ(result_->totals.daily.size(), static_cast<size_t>(cfg_.days));
  traffic::DaySessionStats merged;
  for (const auto& d : result_->totals.daily) merged += d;
  EXPECT_EQ(merged, fleet_sum);
  EXPECT_EQ(merged.sessions, result_->totals.sessions);
  EXPECT_EQ(merged.he_failures, result_->totals.he_failures);
}

TEST_F(Nat64ScenarioTest, WindowedHeFailureRateIsFinite) {
  ASSERT_TRUE(result_.has_value());
  const std::vector<core::FleetMetric> metrics = {
      core::FleetMetric::he_failure_rate, core::FleetMetric::sessions_k,
      core::FleetMetric::outage_suppressed_k};
  for (core::DayWindow w :
       {core::DayWindow{0, 11}, core::DayWindow{12, cfg_.days - 1},
        core::DayWindow{}}) {
    auto m = core::extract_metrics(*result_, metrics, w);
    size_t finite_rates = 0;
    for (size_t i = 0; i < result_->residences.size(); ++i) {
      const auto& run = result_->residences[i];
      // Sessions attempted inside the window.
      std::uint64_t sessions = 0;
      for (size_t d = 0; d < run.stats.daily.size(); ++d)
        if (w.contains(static_cast<int>(d)))
          sessions += run.stats.daily[d].sessions;
      double rate = m.values[0][i];
      if (sessions == 0) {
        EXPECT_TRUE(std::isnan(rate)) << i;  // undefined, not fake zero
      } else {
        ASSERT_TRUE(std::isfinite(rate)) << "residence " << i;
        EXPECT_GE(rate, 0.0);
        EXPECT_LE(rate, 1.0);
        ++finite_rates;
      }
      // Count metrics are plain finite counts in every in-horizon window.
      EXPECT_TRUE(std::isfinite(m.values[1][i])) << i;
      EXPECT_TRUE(std::isfinite(m.values[2][i])) << i;
      EXPECT_DOUBLE_EQ(m.values[1][i],
                       static_cast<double>(sessions) / 1e3);
    }
    // Most of a 24-home fleet has sessions in any multi-day window.
    EXPECT_GT(finite_rates, result_->residences.size() / 2) << w.first;
  }
}

TEST_F(Nat64ScenarioTest, PrePostPanelReportsRealPValues) {
  ASSERT_TRUE(result_.has_value());
  // Migration waves land inside days 12-30: pre-migration vs the rest.
  auto metrics = core::default_fleet_metrics();
  auto panel = core::compare_windows(*result_, metrics, core::DayWindow{0, 11},
                                     core::DayWindow{12, cfg_.days - 1});
  ASSERT_FALSE(panel.rows.empty());
  const stats::PanelRow* he_row = nullptr;
  for (const auto& r : panel.rows) {
    EXPECT_TRUE(std::isfinite(r.p_raw)) << r.metric;
    EXPECT_GT(r.p_raw, 0.0) << r.metric;
    EXPECT_LE(r.p_raw, 1.0) << r.metric;
    EXPECT_TRUE(std::isfinite(r.p_holm)) << r.metric;
    EXPECT_TRUE(std::isfinite(r.z)) << r.metric;
    if (r.metric == "he_failure_rate") he_row = &r;
  }
  // The fix's acceptance: the failure-rate row exists and carries a real
  // test over a real pairing (broken-v6 homes start failing hard once
  // migrated, so the post median cannot sit below the pre median).
  ASSERT_NE(he_row, nullptr)
      << "he_failure_rate missing from the windowed panel";
  // Zero pre/post differences are discarded (Wilcoxon's treatment), so n
  // counts the homes the migration actually broke: v4-only and broken-CPE
  // homes behind the new v6-only access network.
  EXPECT_GE(he_row->n_a, 3u);
  EXPECT_GE(he_row->median_b, he_row->median_a);
}

TEST_F(Nat64ScenarioTest, DegenerateWindowsAreDefinedNoResults) {
  ASSERT_TRUE(result_.has_value());
  auto metrics = core::default_fleet_metrics();
  const core::DayWindow inverted{20, 5};
  const core::DayWindow past_horizon{cfg_.days, cfg_.days + 100};
  const core::DayWindow before_horizon{-40, -1};
  EXPECT_FALSE(inverted.valid());
  EXPECT_TRUE(past_horizon.valid());  // well-formed, just no data

  for (const auto& w : {inverted, past_horizon, before_horizon}) {
    // Extraction: every metric undefined — no simulated day, no value.
    auto m = core::extract_metrics(*result_, metrics, w);
    for (const auto& row : m.values)
      for (double v : row) EXPECT_TRUE(std::isnan(v)) << w.first;
    // Panels: a defined empty result, in either window slot.
    EXPECT_TRUE(core::compare_windows(*result_, metrics, w,
                                      core::DayWindow{0, cfg_.days - 1})
                    .rows.empty())
        << w.first;
    EXPECT_TRUE(core::compare_windows(*result_, metrics,
                                      core::DayWindow{0, cfg_.days - 1}, w)
                    .rows.empty())
        << w.first;
  }
}

/// 16 homes x 12 days with an outage window and a NAT64 migration: every
/// per-day series has empty days, suppressed sessions and failures in it.
engine::FleetConfig nat64_outage_config() {
  engine::FleetConfig cfg;
  cfg.residences = 16;
  cfg.days = 12;
  cfg.seed = 404;
  cfg.timeline->events.push_back(*engine::Timeline::parse_event(
      "outage", "start=3 end=8 frac=0.5 len=2"));
  cfg.timeline->events.push_back(
      *engine::Timeline::parse_event("nat64_migration", "start=6 frac=0.4"));
  return cfg;
}

TEST(FleetDayStats, PerDayMergeBitIdenticalAcrossLanes) {
  auto catalog = traffic::build_paper_catalog();
  const auto cfg = nat64_outage_config();

  std::optional<engine::FleetResult> reference;
  for (int lanes : {1, 4, 8}) {
    std::unique_ptr<engine::ThreadPool> pool;
    if (lanes > 1) pool = std::make_unique<engine::ThreadPool>(lanes - 1);
    auto result = testutil::simulate_scenario(cfg, catalog, pool.get());
    if (!reference.has_value()) {
      reference = std::move(result);
      continue;
    }
    ASSERT_EQ(result.residences.size(), reference->residences.size());
    for (size_t i = 0; i < result.residences.size(); ++i)
      EXPECT_EQ(result.residences[i].stats.daily,
                reference->residences[i].stats.daily)
          << "lanes=" << lanes << " residence " << i;
    EXPECT_EQ(result.totals.daily, reference->totals.daily)
        << "lanes=" << lanes;
  }
}

TEST(FleetDayStats, OutageDaysCarrySuppressedSessions) {
  // A whole-window outage must show up in the day-resolved series exactly
  // inside its window — and in windowed outage_suppressed_k extraction.
  auto catalog = traffic::build_paper_catalog();
  engine::FleetConfig cfg;
  cfg.residences = 8;
  cfg.days = 10;
  cfg.seed = 21;
  cfg.background_only_frac = 0.0;
  cfg.timeline->events.push_back(
      *engine::Timeline::parse_event("outage", "start=4 end=6 frac=1.0"));

  engine::ThreadPool pool(1);
  auto result = testutil::simulate_scenario(cfg, catalog, &pool);
  ASSERT_EQ(result.totals.daily.size(), 10u);
  for (int d = 0; d < 10; ++d) {
    const auto& ds = result.totals.daily[static_cast<size_t>(d)];
    if (d >= 4 && d <= 6) {
      EXPECT_GT(ds.outage_suppressed, 0u) << d;
      EXPECT_EQ(ds.sessions, 0u) << d;  // nothing reaches the WAN
    } else {
      EXPECT_EQ(ds.outage_suppressed, 0u) << d;
    }
  }

  const std::vector<core::FleetMetric> metrics = {
      core::FleetMetric::outage_suppressed_k};
  auto in = core::extract_metrics(result, metrics, core::DayWindow{4, 6});
  auto out = core::extract_metrics(result, metrics, core::DayWindow{0, 3});
  for (size_t i = 0; i < result.residences.size(); ++i) {
    ASSERT_TRUE(std::isfinite(in.values[0][i])) << i;
    EXPECT_GT(in.values[0][i], 0.0) << i;
    EXPECT_DOUBLE_EQ(out.values[0][i], 0.0) << i;
  }
}

// The unwindowed extraction is the windowed kernel over the whole horizon.
// Every metric must equal, bit for bit, its value computed straight from the
// monitor's horizon totals and the simulator's horizon session stats.
TEST(ExtractMetrics, WholeHorizonMatchesTotals) {
  auto catalog = traffic::build_paper_catalog();
  engine::ThreadPool pool(1);
  const auto result =
      testutil::simulate_scenario(nat64_outage_config(), catalog, &pool);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto fraction = [nan](double f) { return f < 0 ? nan : f; };
  auto per_session = [nan](std::uint64_t n, std::uint64_t sessions) {
    return sessions == 0 ? nan
                         : static_cast<double>(n) /
                               static_cast<double>(sessions);
  };
  auto from_totals = [&](const engine::ResidenceRun& run, core::FleetMetric m) {
    const auto& ext = run.monitor.totals(flowmon::Scope::external);
    const auto& s = run.stats;
    switch (m) {
      case core::FleetMetric::v6_byte_fraction:
        return fraction(ext.v6_byte_fraction());
      case core::FleetMetric::v6_flow_fraction:
        return fraction(ext.v6_flow_fraction());
      case core::FleetMetric::daily_v6_byte_fraction: {
        const auto daily =
            run.monitor.daily_v6_fractions(flowmon::Scope::external, true);
        return daily.empty() ? nan : stats::mean(daily);
      }
      case core::FleetMetric::external_gb:
        return static_cast<double>(ext.total_bytes()) / 1e9;
      case core::FleetMetric::external_flows_k:
        return static_cast<double>(ext.total_flows()) / 1e3;
      case core::FleetMetric::internal_gb:
        return static_cast<double>(
                   run.monitor.totals(flowmon::Scope::internal).total_bytes()) /
               1e9;
      case core::FleetMetric::he_failure_rate:
        return per_session(s.he_failures, s.sessions);
      case core::FleetMetric::sessions_k:
        return static_cast<double>(s.sessions) / 1e3;
      case core::FleetMetric::outage_suppressed_k:
        return static_cast<double>(s.outage_suppressed) / 1e3;
      case core::FleetMetric::service_outage_k:
        return static_cast<double>(s.service_outage_failed) / 1e3;
      case core::FleetMetric::cgn_failure_rate:
        return per_session(s.cgn_failures, s.sessions);
    }
    return nan;
  };

  auto metrics = core::default_fleet_metrics();
  for (auto m : {core::FleetMetric::sessions_k,
                 core::FleetMetric::outage_suppressed_k,
                 core::FleetMetric::service_outage_k,
                 core::FleetMetric::cgn_failure_rate})
    metrics.push_back(m);
  const auto matrix = core::extract_metrics(result, metrics);
  ASSERT_EQ(matrix.values.size(), metrics.size());
  for (size_t m = 0; m < metrics.size(); ++m) {
    for (size_t i = 0; i < result.residences.size(); ++i) {
      const double want = from_totals(result.residences[i], metrics[m]);
      const double got = matrix.values[m][i];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << core::to_string(metrics[m]) << " residence " << i << ": " << got
          << " vs " << want;
    }
  }
}

}  // namespace
}  // namespace nbv6
