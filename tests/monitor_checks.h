// gtest checks on FlowMonitor state, shared by flowmon_test and
// engine_test: whole-state equality and the canonical form of the dense
// day/hour series (empty, or the last cell is non-empty).
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "flowmon/monitor.h"

namespace nbv6::testutil {

inline void expect_canonical(const std::vector<flowmon::FamilySplit>& series,
                             const char* what) {
  if (!series.empty()) {
    EXPECT_NE(series.back().total_flows(), 0u)
        << what << " ends in an empty cell (size " << series.size() << ")";
  }
}

/// Every series of `m` is in canonical form.
inline void expect_canonical(const flowmon::FlowMonitor& m) {
  expect_canonical(m.daily(flowmon::Scope::external), "daily external");
  expect_canonical(m.daily(flowmon::Scope::internal), "daily internal");
  expect_canonical(m.hourly_external(), "hourly external");
}

/// `a` and `b` hold the same aggregates, both in canonical form.
inline void expect_same_aggregates(const flowmon::FlowMonitor& a,
                                   const flowmon::FlowMonitor& b) {
  using flowmon::Scope;
  expect_canonical(a);
  expect_canonical(b);
  EXPECT_EQ(a.totals(Scope::external), b.totals(Scope::external));
  EXPECT_EQ(a.totals(Scope::internal), b.totals(Scope::internal));
  EXPECT_EQ(a.daily(Scope::external), b.daily(Scope::external));
  EXPECT_EQ(a.daily(Scope::internal), b.daily(Scope::internal));
  EXPECT_EQ(a.hourly_external(), b.hourly_external());
  EXPECT_EQ(a.destination_tallies(), b.destination_tallies());
  EXPECT_EQ(a.new_events(), b.new_events());
  EXPECT_EQ(a.destroy_events(), b.destroy_events());
  // Derived fraction series are pure functions of the integer state.
  EXPECT_EQ(a.daily_v6_fractions(Scope::external, true),
            b.daily_v6_fractions(Scope::external, true));
  EXPECT_EQ(a.hourly_v6_fraction_series(true),
            b.hourly_v6_fraction_series(true));
}

}  // namespace nbv6::testutil
