// Residence models: the five households of §3.
//
// Each residence is a parameterized traffic source. Parameters encode the
// causal factors the paper identifies for cross-residence variation:
// what services its residents favour (service weight overrides), whether
// devices actually have working IPv6 (Residence C's suppressed per-AS
// maximum suggests broken client IPv6), what fraction of household traffic
// the study router even sees (Residences D and E had privacy opt-outs),
// and scripted absences (Residence A's spring break, §3.3).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "traffic/arrival.h"

namespace nbv6::traffic {

/// One simulated day's effective overrides, derived from a scenario
/// timeline (engine::apply_timeline). Plain data so the traffic layer
/// stays independent of the engine: values < 0 keep the residence's
/// static configuration for that day.
struct DayPlan {
  /// Multiplies the interactive activity rate (seasonal scaling).
  double activity_mult = 1.0;
  /// Effective probability that a device's IPv6 works this day; < 0 keeps
  /// ResidenceConfig::device_v6_ok_frac (rollout waves / CPE fixes).
  double device_v6_ok_frac = -1.0;
  /// Effective LAN IPv6 share this day; < 0 keeps the static value.
  double internal_v6_frac = -1.0;
  /// External connectivity down: no WAN sessions at all, LAN continues.
  bool outage = false;
  /// Behind a v6-only (NAT64) access network: all WAN traffic rides IPv6,
  /// v4-only destinations via 64:ff9b::/96 translation; devices whose
  /// IPv6 is broken have no connectivity.
  bool nat64 = false;
  /// Delegated-prefix generation (prefix_renumber events): 0 = the original
  /// /56; each increment rotates every LAN v6 source address.
  int prefix_epoch = 0;
  /// Bit s set = catalog service s is unreachable this day (service_outage
  /// events). Sessions to a down service fail after the visibility check.
  std::uint64_t service_down_mask = 0;
  /// Per-day CGN translation-port budget for v4 WAN flows; < 0 means
  /// unconstrained (cgn_exhaustion events). Once a day's v4 flows exhaust
  /// the budget, further v4 sessions fail.
  int cgn_port_budget = -1;
  /// Multiplies the interactive arrival rate on top of activity_mult
  /// (lambda_ramp events). Exactly 1.0 when no ramp applies — multiplying
  /// by 1.0 is an IEEE bit-identity, so batch-mode replays stay byte-exact.
  double lambda_mult = 1.0;
  /// Bit h set = hour h is inside a flash-crowd burst this day; arrivals in
  /// those hours are additionally multiplied by flash_mult. The mask comes
  /// from the event (not a per-home draw), so every affected home spikes in
  /// the same hour slots — the correlated cross-residence surge.
  std::uint32_t flash_hour_mask = 0;
  /// Flash-crowd intensity for masked hours; exactly 1.0 when unused.
  double flash_mult = 1.0;

  friend bool operator==(const DayPlan&, const DayPlan&) = default;
};

/// The all-defaults plan: what a day without timeline events behaves like.
inline constexpr DayPlan kStaticDayPlan{};

/// Lazy day-plan provider: the simulator calls it once at the start of each
/// simulated day. Must be a pure function of the day index — the engine's
/// replay guarantees (lane count / sampling order can never change a run)
/// hold only for deterministic providers. Keeping plans as a function keeps
/// timeline memory O(lanes x days) instead of materializing
/// residences x days DayPlan entries up front.
using DayPlanFn = std::function<DayPlan(int day)>;

struct ResidenceConfig {
  std::string name;

  /// Simulated days; the paper observes Nov 2024 – Aug 2025 (~274 days).
  int days = 274;
  /// Weekday of day 0 (0 = Monday). 2024-11-01 was a Friday.
  int start_weekday = 4;

  /// Mean interactive sessions per fully-active hour. Scales volume.
  double activity_scale = 8.0;
  /// Probability that the device behind a session has working IPv6.
  double device_v6_ok_frac = 1.0;
  /// Fraction of household sessions routed through the study router.
  double visibility = 1.0;

  /// Internal (LAN-to-LAN) flows per hour, and their IPv6 share.
  double internal_flows_per_hour = 2.0;
  double internal_v6_frac = 0.4;

  /// Probability that a background (non-human) session is pinned to IPv4
  /// regardless of endpoint capability — legacy firmware and hardcoded
  /// update endpoints. Modern smart-home fleets (Residence D) run lower.
  double background_v4_bias = 0.7;

  /// Multiplies catalog popularity per service name; unlisted services
  /// keep weight 1.0. Encodes each household's distinctive service mix.
  std::vector<std::pair<std::string, double>> service_weight_overrides;

  /// [first_day, last_day] inclusive ranges when the residence is empty
  /// (only background traffic). Day 135 ≈ mid-March 2025.
  std::vector<std::pair<int, int>> away_day_ranges;

  /// Timeline overrides, consulted once per simulated day; unset = static
  /// behaviour for the whole horizon. engine::apply_timeline installs one
  /// per residence so a million-home, year-long fleet never materializes
  /// residences x days plans.
  DayPlanFn day_plan_fn;

  /// How sessions land inside a day: the original per-hour batch (default)
  /// or an open-loop tick-sliced arrival process. Copied from the
  /// scenario's FleetConfig::arrival by engine::sample_stage.
  ArrivalConfig arrival;

  std::uint64_t seed = 1;
};

/// The five paper residences with calibrated parameters. Index 0..4 =
/// A..E. Calibration targets Table 1's external IPv6 byte fractions
/// (A 0.68, B 0.64, C 0.12, D 0.50, E 0.07) and the qualitative findings:
/// C has broken device IPv6, D and E have partial visibility and little
/// traffic, E's daily fractions are strongly bimodal.
std::vector<ResidenceConfig> paper_residences();

}  // namespace nbv6::traffic
