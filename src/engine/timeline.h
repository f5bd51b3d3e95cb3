// Scenario timelines: conditions that change mid-observation.
//
// The paper's longitudinal claims come from months of telemetry in which
// the world does not hold still — devices gain IPv6 when the ISP finally
// delegates a prefix, broken CPE gets a firmware fix, connectivity dies
// for days at a time, access networks migrate behind NAT64/CGN, and
// activity breathes with the seasons. The static FleetConfig scenario
// layer samples one ResidenceConfig per home and keeps it for the whole
// horizon; this module adds the time axis.
//
// A Timeline is an ordered list of typed events parsed from the same
// key=value scenario files ("timeline.<kind> = k=v k=v ..." lines, one
// per event, repeatable). Every per-residence decision an event makes —
// whether a home is affected, on which day its flip/fix/migration lands —
// is a pure function of (scenario seed, event ordinal, residence index),
// and the resulting day plan is a pure function of (seed, index, day).
// Nothing depends on sampling order, population size beyond the index, or
// engine thread count, so a timeline replay is bit-identical for any lane
// count — the invariant the golden-replay suite pins.
//
// apply_timeline() installs a per-day DayPlan provider on each sampled
// ResidenceConfig; the traffic generator consults the plan at the start of
// every simulated day.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nbv6::traffic {
struct DayPlan;
struct ResidenceConfig;
}  // namespace nbv6::traffic

namespace nbv6::engine {

struct FleetConfig;
struct ResidenceTraits;
struct SampledFleet;

/// What a timeline event does to the residences it selects.
enum class TimelineEventKind {
  /// ISP rollout wave: a share of v4-only homes gains delegated IPv6, each
  /// on its own uniformly-drawn day inside [start_day, end_day].
  rollout_wave,
  /// CPE firmware fix: a share of broken-IPv6 homes is repaired, each on
  /// its own day inside the window; device IPv6 works from then on.
  cpe_fix,
  /// Multi-day connectivity outage. With duration_days == 0 every affected
  /// home is dark for the whole window (a storm/backhaul incident); with
  /// duration_days > 0 each affected home gets its own outage of that
  /// length starting on a uniformly-drawn day inside the window (CPE
  /// breaks, then gets fixed). Internal LAN traffic continues.
  outage,
  /// NAT64/CGN migration: a share of homes moves to a v6-only access
  /// network on its own day inside the window and stays there. IPv4-only
  /// destinations are reached through RFC 6146 translation (64:ff9b::/96),
  /// so WAN-side traffic is all-IPv6; devices with broken IPv6 lose
  /// connectivity for the duration.
  nat64_migration,
  /// Seasonal activity scaling: affected homes' interactive activity is
  /// multiplied by 1 + amplitude * sin(2*pi*(day - start_day)/period_days)
  /// inside the window. Multiple seasonal events compose multiplicatively.
  seasonal,
  /// ISP prefix renumbering: each affected home's delegated /56 rotates on
  /// its own uniformly-drawn day inside the window and stays rotated — LAN
  /// devices renumber, so every v6 flow after the rotation carries fresh
  /// source prefixes (churning downstream CryptoPAN prefix caches). Multiple
  /// renumber events compose: each adds one epoch after its drawn day.
  prefix_renumber,
  /// Per-service outage: one catalog service (`svc=` index) becomes
  /// unreachable for affected homes — sessions to it fail while every other
  /// service works. With len == 0 the service is down for the whole window;
  /// with len > 0 each affected home gets its own len-day outage starting
  /// on a uniformly-drawn day inside the window.
  service_outage,
  /// CGN port-pool exhaustion: inside the window, affected homes' IPv4 WAN
  /// sessions share a per-day translation-port budget (`ports=`). Once a
  /// day's budget is spent, further v4 sessions fail; IPv6 traffic is
  /// untouched. Overlapping events take the tightest budget.
  cgn_exhaustion,
  /// Device-fleet turnover drift: affected homes gradually replace devices
  /// with broken IPv6. The working-IPv6 probability ramps linearly from its
  /// static value toward full health across the window — `rate` is the
  /// share of the broken gap closed by the window's end — and the
  /// replacement persists afterwards. Only homes with delegated IPv6 feel
  /// it (a new device without a prefix is still v4-only).
  device_turnover,
  /// Interactive-arrival lambda ramp: affected homes' session rate climbs
  /// linearly across the window from its static value toward `mult` times
  /// it, and holds at `mult` afterwards (adoption of a new service,
  /// work-from-home shifts). Multiple ramps compose multiplicatively; the
  /// composite is clamped to [1/16, 16]. Shapes both the batch per-hour
  /// counts and the open-loop arrival processes.
  lambda_ramp,
  /// Flash crowd: on every day inside the window, affected homes' arrivals
  /// in hour slots [hour, hour + hours) are multiplied by `mult`. The hour
  /// slots come from the event, not a per-home draw, so every affected
  /// home spikes in the same slots — the correlated cross-residence
  /// intra-day surge the open-loop engine exists to express. Overlapping
  /// crowds union their hour masks and multiply their intensities
  /// (clamped to [1/16, 16]).
  flash_crowd,
};

const char* to_string(TimelineEventKind k);

/// One scheduled change. Only the fields a kind documents are read; the
/// parser rejects specs that set fields their kind cannot use.
struct TimelineEvent {
  TimelineEventKind kind = TimelineEventKind::rollout_wave;
  /// Inclusive day window the event acts inside.
  int start_day = 0;
  int end_day = 0;
  /// Share of eligible residences the event touches, in [0, 1].
  double fraction = 1.0;
  /// seasonal only: relative swing in [0, 1].
  double amplitude = 0.3;
  /// seasonal only: full sine period in days; 0 selects 364 (annual).
  int period_days = 0;
  /// outage / service_outage: per-residence outage length; 0 = whole
  /// window for all.
  int duration_days = 0;
  /// service_outage only: catalog service index in [0, 63] (required).
  int service = -1;
  /// cgn_exhaustion only: per-day v4 translation-port budget, >= 0
  /// (required; 0 is legal and means no v4 WAN capacity at all).
  int port_budget = -1;
  /// device_turnover only: share of the broken-IPv6 gap closed by the
  /// window's end, in [0, 1].
  double turnover_rate = 1.0;
  /// lambda_ramp / flash_crowd: rate multiplier in (0, 16] (required).
  double mult = 1.0;
  /// flash_crowd only: first burst hour, 0..23 (required).
  int hour = -1;
  /// flash_crowd only: burst length in hours, 1..24 (slots past hour 23
  /// are dropped, not wrapped).
  int hour_span = 1;

  friend bool operator==(const TimelineEvent&, const TimelineEvent&) = default;
};

/// An ordered event list. Event ordinals (positions in `events`) are part
/// of the deterministic derivation, so edits that reorder events change
/// the replay — append new events to keep existing goldens stable.
struct Timeline {
  std::vector<TimelineEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }

  /// Parse one event spec: `kind` is the text after "timeline." in the
  /// config key; `spec` is the value — whitespace-separated k=v pairs.
  /// Every kind takes the window keys `start`, `end` and `day` (shorthand
  /// for `start=N end=N`); which other keys it takes or requires, and each
  /// key's field and range, come from the kind and key tables in
  /// timeline.cpp. Unknown kinds, unknown or kind-inapplicable keys,
  /// values outside their ranges, NaN/inf, and end < start all fail the
  /// parse; when `error` is non-null it receives a one-line description
  /// naming the offending token (never silently ignored).
  static std::optional<TimelineEvent> parse_event(std::string_view kind,
                                                  std::string_view spec,
                                                  std::string* error = nullptr);
  /// The inverse of parse_event: the window, then the kind's keys in table
  /// order, omitting a key whose value is outside its range (the field's
  /// "not given" default). parse_event(to_string(ev.kind),
  /// render_event(ev)) == ev for every parsed event.
  static std::string render_event(const TimelineEvent& ev);

  friend bool operator==(const Timeline&, const Timeline&) = default;
};

/// The traffic layer's plan for residence `index` on `day`: every event
/// applied to its sampled base traits, with the day's device and LAN IPv6
/// resolved against `sampled`, the residence's sampled static config (the
/// values "keep static" plan fields fall back to). Pure function of (tl,
/// seed, index, day, days, base, sampled) — see the file comment for why
/// that purity matters. `days` is the scenario horizon: event windows are
/// clamped to [start_day, days - 1] before the per-residence day draw, so
/// "to the horizon" windows (no `end=` in the spec) stagger changes across
/// the simulated period rather than an unbounded future; kStaticDayPlan
/// outside [0, days). Runs the same evaluator as the providers
/// apply_timeline installs, but redraws the residence's events on every
/// call: the materialized reference the lazy providers are checked against.
traffic::DayPlan timeline_day_plan(const Timeline& tl, std::uint64_t seed,
                                   int index, int day, int days,
                                   const ResidenceTraits& base,
                                   const traffic::ResidenceConfig& sampled);

/// Hand the timeline's per-day plans to every sampled config as a lazy
/// DayPlanFn: one timeline_day_plan evaluation per simulated day, with the
/// day-invariant per-event draws taken once per residence. Memory stays
/// O(lanes x days) — nothing proportional to residences x days is ever
/// allocated. An empty timeline clears the providers, leaving the static
/// fast path untouched. `seed` and `days` are the scenario's master seed
/// and horizon. Idempotent: each call recomputes from scratch. Throws
/// std::invalid_argument, touching no config, on a traits/configs size
/// mismatch.
void apply_timeline(SampledFleet& fleet, const Timeline& tl,
                    std::uint64_t seed, int days);

// ------------------------------------------------ shared config parsing
// Helpers shared by FleetConfig::parse and Timeline::parse_event so the
// scalar and timeline sections of a scenario file agree on lexing rules.
namespace cfgparse {

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view s);
/// Strict full-string parses; reject trailing junk. parse_double also
/// rejects NaN and infinities — no scenario knob has a non-finite meaning.
bool parse_double(std::string_view v, double& out);
bool parse_int(std::string_view v, int& out);
bool parse_u64(std::string_view v, std::uint64_t& out);
/// %.17g: the shortest printf form that round-trips any double, so text
/// equality is bit equality.
std::string format_double(double v);

}  // namespace cfgparse

}  // namespace nbv6::engine
