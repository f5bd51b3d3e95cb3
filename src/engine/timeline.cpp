#include "engine/timeline.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/fleet.h"
#include "stats/rng.h"

namespace nbv6::engine {

namespace cfgparse {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

bool parse_double(std::string_view v, double& out) {
  // std::from_chars<double> is not universally available; strtod on a
  // bounded copy is fine for config-file volumes.
  std::string tmp(v);
  char* end = nullptr;
  out = std::strtod(tmp.c_str(), &end);
  return end == tmp.c_str() + tmp.size() && !tmp.empty() &&
         std::isfinite(out);
}

bool parse_int(std::string_view v, int& out) {
  auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc{} && p == v.data() + v.size();
}

bool parse_u64(std::string_view v, std::uint64_t& out) {
  auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc{} && p == v.data() + v.size();
}

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace cfgparse

namespace {

/// Fill `*error` (when non-null) with "<what> '<token>'"-style context;
/// every rejection names the offending token so config mistakes are
/// diagnosable from the message alone.
std::nullopt_t fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return std::nullopt;
}

std::string quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '\'';
  out += s;
  out += '\'';
  return out;
}

/// One event key besides the window keys (day/start/end): the field it
/// sets (exactly one pointer is non-null) and its legal range. Every
/// field's default outside [lo, hi] is its "not given" sentinel, which is
/// what lets render_event omit exactly those keys.
struct EventKey {
  std::string_view name;
  int TimelineEvent::*int_field;
  double TimelineEvent::*double_field;
  double lo, hi;
};

constexpr double kIntMax = std::numeric_limits<int>::max();

/// Every event key, in render order.
constexpr EventKey kKeys[] = {
    {"frac", nullptr, &TimelineEvent::fraction, 0.0, 1.0},
    {"amp", nullptr, &TimelineEvent::amplitude, 0.0, 1.0},
    {"period", &TimelineEvent::period_days, nullptr, 1, kIntMax},
    {"len", &TimelineEvent::duration_days, nullptr, 1, kIntMax},
    // The day plan's service mask is 64 bits wide; indices must fit it.
    {"svc", &TimelineEvent::service, nullptr, 0, 63},
    {"ports", &TimelineEvent::port_budget, nullptr, 0, kIntMax},
    {"rate", nullptr, &TimelineEvent::turnover_rate, 0.0, 1.0},
    {"hour", &TimelineEvent::hour, nullptr, 0, 23},
    {"hours", &TimelineEvent::hour_span, nullptr, 1, 24},
    // (0, 16]: the smallest positive double as the lower bound opens the
    // range at 0. The day-plan composition clamps stacked multipliers to
    // the same ceiling, so a single event never exceeds what a stack can.
    {"mult", nullptr, &TimelineEvent::mult,
     std::numeric_limits<double>::denorm_min(), 16.0},
};

/// The mask bit of kKeys entry `name`. A name missing from the table reads
/// past its end, which fails to compile.
consteval unsigned key_bit(std::string_view name) {
  size_t i = 0;
  while (kKeys[i].name != name) ++i;
  return 1u << i;
}

bool in_range(const EventKey& k, const TimelineEvent& ev) {
  const double v =
      k.int_field != nullptr ? ev.*k.int_field : ev.*k.double_field;
  return v >= k.lo && v <= k.hi;
}

/// Every event kind, indexed by TimelineEventKind: the keys it takes
/// besides day/start/end, and which of those it requires.
struct EventKind {
  const char* name;
  TimelineEventKind kind;
  unsigned keys;
  unsigned required;
};

constexpr unsigned kFrac = key_bit("frac");
constexpr EventKind kKinds[] = {
    {"rollout_wave", TimelineEventKind::rollout_wave, kFrac, 0},
    {"cpe_fix", TimelineEventKind::cpe_fix, kFrac, 0},
    {"outage", TimelineEventKind::outage, kFrac | key_bit("len"), 0},
    {"nat64_migration", TimelineEventKind::nat64_migration, kFrac, 0},
    {"seasonal", TimelineEventKind::seasonal,
     kFrac | key_bit("amp") | key_bit("period"), 0},
    {"prefix_renumber", TimelineEventKind::prefix_renumber, kFrac, 0},
    {"service_outage", TimelineEventKind::service_outage,
     kFrac | key_bit("len") | key_bit("svc"), key_bit("svc")},
    {"cgn_exhaustion", TimelineEventKind::cgn_exhaustion,
     kFrac | key_bit("ports"), key_bit("ports")},
    {"device_turnover", TimelineEventKind::device_turnover,
     kFrac | key_bit("rate"), 0},
    {"lambda_ramp", TimelineEventKind::lambda_ramp, kFrac | key_bit("mult"),
     key_bit("mult")},
    {"flash_crowd", TimelineEventKind::flash_crowd,
     kFrac | key_bit("hour") | key_bit("hours") | key_bit("mult"),
     key_bit("hour") | key_bit("mult")},
};

constexpr bool kinds_indexed_by_enum() {
  for (size_t i = 0; i < std::size(kKinds); ++i)
    if (static_cast<size_t>(kKinds[i].kind) != i) return false;
  return true;
}
static_assert(kinds_indexed_by_enum());

}  // namespace

const char* to_string(TimelineEventKind k) {
  const auto i = static_cast<size_t>(k);
  return i < std::size(kKinds) ? kKinds[i].name : "?";
}

std::optional<TimelineEvent> Timeline::parse_event(std::string_view kind,
                                                   std::string_view spec,
                                                   std::string* error) {
  const auto* ks = std::find_if(
      std::begin(kKinds), std::end(kKinds),
      [&](const EventKind& k) { return k.name == kind; });
  if (ks == std::end(kKinds))
    return fail(error, "unknown timeline event kind " + quoted(kind));
  TimelineEvent ev;
  ev.kind = ks->kind;

  auto bad_value = [&](std::string_view key, std::string_view val) {
    return fail(error, "invalid value " + quoted(val) + " for event key " +
                           quoted(key));
  };
  auto duplicate = [&](std::string_view key) {
    return fail(error, "duplicate event key " + quoted(key));
  };

  // Whitespace-separated k=v tokens; every key at most once. `day=N` is
  // shorthand for `start=N end=N`, so it conflicts with both.
  enum : unsigned { kDay = 1, kStart = 2, kEnd = 4 };
  unsigned window_seen = 0;
  unsigned seen = 0;  // kKeys bits
  size_t pos = 0;
  while (pos < spec.size()) {
    while (pos < spec.size() &&
           (spec[pos] == ' ' || spec[pos] == '\t'))
      ++pos;
    if (pos >= spec.size()) break;
    size_t end = pos;
    while (end < spec.size() && spec[end] != ' ' && spec[end] != '\t') ++end;
    std::string_view tok = spec.substr(pos, end - pos);
    pos = end;

    size_t eq = tok.find('=');
    if (eq == std::string_view::npos)
      return fail(error, "malformed token " + quoted(tok) +
                             " (expected key=value)");
    std::string_view key = tok.substr(0, eq);
    std::string_view val = tok.substr(eq + 1);

    if (key == "day" || key == "start" || key == "end") {
      const unsigned bit = key == "day" ? kDay : key == "start" ? kStart : kEnd;
      if ((window_seen & bit) != 0) return duplicate(key);
      if (bit == kDay ? window_seen != 0 : (window_seen & kDay) != 0)
        return fail(error, quoted(key) + " conflicts with " +
                               (bit == kDay ? "'start'/'end'" : "'day'"));
      window_seen |= bit;
      int d = 0;
      if (!cfgparse::parse_int(val, d) || d < 0) return bad_value(key, val);
      if (bit != kEnd) ev.start_day = d;
      if (bit != kStart) ev.end_day = d;
      continue;
    }

    const auto* k = std::find_if(
        std::begin(kKeys), std::end(kKeys),
        [&](const EventKey& e) { return e.name == key; });
    if (k == std::end(kKeys))
      return fail(error, "unknown event key " + quoted(key));
    const unsigned bit = 1u << (k - std::begin(kKeys));
    if ((ks->keys & bit) == 0)
      return fail(error, "event key " + quoted(key) + " not valid for kind " +
                             quoted(kind));
    if ((seen & bit) != 0) return duplicate(key);
    seen |= bit;
    const bool parsed = k->int_field != nullptr
                            ? cfgparse::parse_int(val, ev.*k->int_field)
                            : cfgparse::parse_double(val, ev.*k->double_field);
    if (!parsed || !in_range(*k, ev)) return bad_value(key, val);
  }

  // Walked from the table's end so flash_crowd reports 'mult' before 'hour'.
  for (size_t i = std::size(kKeys); i-- > 0;)
    if ((ks->required & ~seen & (1u << i)) != 0)
      return fail(error, quoted(kKeys[i].name) + " is required for " +
                             std::string(kind));

  // A window event with no end runs to the horizon.
  if ((window_seen & (kDay | kEnd)) == 0)
    ev.end_day = std::numeric_limits<int>::max();
  if (ev.end_day < ev.start_day)
    return fail(error, "event window end " + std::to_string(ev.end_day) +
                           " precedes start " + std::to_string(ev.start_day));
  return ev;
}

std::string Timeline::render_event(const TimelineEvent& ev) {
  std::string out;
  if (ev.start_day == ev.end_day) {
    out = "day=" + std::to_string(ev.start_day);
  } else if (ev.end_day == std::numeric_limits<int>::max()) {
    out = "start=" + std::to_string(ev.start_day);  // to the horizon
  } else {
    out = "start=" + std::to_string(ev.start_day) +
          " end=" + std::to_string(ev.end_day);
  }
  const unsigned keys = kKinds[static_cast<size_t>(ev.kind)].keys;
  for (size_t i = 0; i < std::size(kKeys); ++i) {
    const EventKey& k = kKeys[i];
    if ((keys & (1u << i)) == 0 || !in_range(k, ev)) continue;
    out += ' ';
    out += k.name;
    out += '=';
    out += k.int_field != nullptr ? std::to_string(ev.*k.int_field)
                                  : cfgparse::format_double(ev.*k.double_field);
  }
  return out;
}

namespace {

/// Per-(event, residence) decision stream: whether the residence is
/// affected and on which day inside the window its change lands. The
/// derivation folds (seed, event ordinal, index) through splitmix64 — the
/// same pattern sample_stage uses per residence — so the result
/// is independent of evaluation order and population size.
struct EventDraw {
  bool affected = false;
  int day = 0;  ///< flip/fix/migration/outage-start day inside the window
};

EventDraw draw_event(const TimelineEvent& ev, int window_end,
                     std::uint64_t seed, size_t ordinal, int index) {
  std::uint64_t state =
      seed ^ (0xD1B54A32D192ED03ull * (static_cast<std::uint64_t>(ordinal) + 1))
           ^ (0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(index) + 1));
  auto u01 = [&state] {
    return static_cast<double>(stats::splitmix64(state) >> 11) * 0x1.0p-53;
  };
  EventDraw d;
  d.affected = u01() < ev.fraction;
  // The day draw is consumed unconditionally so changing `frac` in a spec
  // never shifts another residence's schedule.
  double u = u01();
  long long width = static_cast<long long>(window_end) - ev.start_day + 1;
  d.day = ev.start_day + static_cast<int>(u * static_cast<double>(width));
  if (d.day > window_end) d.day = window_end;
  return d;
}

/// Last day of `ev`'s window inside the horizon. An event whose whole
/// window lies past the horizon keeps a one-day window at its start and
/// simply never fires.
int window_last(const TimelineEvent& ev, int days) {
  return std::max(ev.start_day, std::min(ev.end_day, days - 1));
}

bool in_window(const TimelineEvent& ev, int day, int days) {
  return day >= ev.start_day && day <= window_last(ev, days);
}

/// outage / service_outage: with len > 0 each affected home is down for
/// its own len days from its drawn day, otherwise for the whole window.
bool down_today(const TimelineEvent& ev, const EventDraw& d, int day,
                int days) {
  // 64-bit bound: start + len near INT_MAX is parser-legal.
  if (ev.duration_days > 0)
    return day >= d.day &&
           day < static_cast<long long>(d.day) + ev.duration_days;
  return in_window(ev, day, days);
}

/// lambda_ramp / device_turnover: the linear ramp's progress across the
/// clamped window on `day` >= start_day, holding at 1 after the window
/// (ramped rates stay, replaced devices stay replaced).
double ramp_progress(const TimelineEvent& ev, int day, int days) {
  const int last = window_last(ev, days);
  const double span = static_cast<double>(last - ev.start_day + 1);
  return static_cast<double>(std::min(day, last) - ev.start_day + 1) / span;
}

constexpr double kTau = 6.28318530717958647692;

/// One residence's draws for every event, hoisted out of the day loop:
/// draw_event depends only on (seed, ordinal, index), never on the day.
std::vector<EventDraw> draw_all_events(const Timeline& tl, std::uint64_t seed,
                                       int index, int days) {
  std::vector<EventDraw> draws;
  draws.reserve(tl.events.size());
  for (size_t e = 0; e < tl.events.size(); ++e)
    draws.push_back(draw_event(tl.events[e], window_last(tl.events[e], days),
                               seed, e, index));
  return draws;
}

/// The plan for one residence-day: every event applied to the sampled base
/// traits, then the day's IPv6 state resolved against the residence's
/// sampled internal_v6_frac and device_v6_ok_frac (the values negative
/// plan fields fall back to). kStaticDayPlan outside [0, days). The one
/// evaluator timeline_day_plan and the lazy providers share.
traffic::DayPlan plan_day(const Timeline& tl, std::span<const EventDraw> draws,
                          int day, int days, const ResidenceTraits& base,
                          double static_internal_v6_frac,
                          double static_device_v6_ok_frac) {
  if (day < 0 || day >= days) return traffic::kStaticDayPlan;
  traffic::DayPlan p;
  bool isp_v6 = base.dual_stack_isp;  // the ISP delegates IPv6 today
  bool cpe_broken = base.dual_stack_isp && base.broken_v6;
  // Share of the broken-device gap closed by turnover so far; concurrent
  // turnover events compose as independent repairs, staying inside [0, 1].
  double v6_ok_uplift = 0.0;

  for (size_t e = 0; e < tl.events.size(); ++e) {
    const TimelineEvent& ev = tl.events[e];
    const EventDraw& d = draws[e];
    if (!d.affected) continue;
    switch (ev.kind) {
      case TimelineEventKind::rollout_wave:
        if (!base.dual_stack_isp && day >= d.day) isp_v6 = true;
        break;
      case TimelineEventKind::cpe_fix:
        if (day >= d.day) cpe_broken = false;
        break;
      case TimelineEventKind::outage:
        if (down_today(ev, d, day, days)) p.outage = true;
        break;
      case TimelineEventKind::nat64_migration:
        if (day >= d.day) {
          p.nat64 = true;
          isp_v6 = true;  // the v6-only access network delegates v6
        }
        break;
      case TimelineEventKind::seasonal:
        if (in_window(ev, day, days)) {
          int period = ev.period_days > 0 ? ev.period_days : 364;
          p.activity_mult *=
              1.0 + ev.amplitude *
                        std::sin(kTau * static_cast<double>(day - ev.start_day) /
                                 static_cast<double>(period));
        }
        break;
      case TimelineEventKind::prefix_renumber:
        // Each rotation is permanent; overlapping renumber events stack one
        // epoch each, in event order, so the epoch is reproducible for any
        // subset of events landing by `day`.
        if (day >= d.day) ++p.prefix_epoch;
        break;
      case TimelineEventKind::service_outage:
        if (down_today(ev, d, day, days))
          p.service_down_mask |= 1ull << ev.service;
        break;
      case TimelineEventKind::cgn_exhaustion:
        if (in_window(ev, day, days)) {
          p.cgn_port_budget = p.cgn_port_budget < 0
                                  ? ev.port_budget
                                  : std::min(p.cgn_port_budget, ev.port_budget);
        }
        break;
      case TimelineEventKind::lambda_ramp:
        // Ramps toward `mult` and holds there. Multiple ramps compose
        // multiplicatively; see the clamp after the loop.
        if (day >= ev.start_day)
          p.lambda_mult *= 1.0 + (ev.mult - 1.0) * ramp_progress(ev, day, days);
        break;
      case TimelineEventKind::flash_crowd:
        if (in_window(ev, day, days)) {
          // The burst slots come from the event, not a per-home draw:
          // every affected home spikes in the same hours. Slots past hour
          // 23 are dropped (no wrap into the next day).
          const int first = ev.hour;
          const int last = std::min(first + ev.hour_span, 24);
          for (int h = first; h < last; ++h)
            p.flash_hour_mask |= 1u << h;
          p.flash_mult *= ev.mult;
        }
        break;
      case TimelineEventKind::device_turnover:
        if (day >= ev.start_day) {
          const double uplift =
              ev.turnover_rate * ramp_progress(ev, day, days);
          v6_ok_uplift = 1.0 - (1.0 - v6_ok_uplift) * (1.0 - uplift);
        }
        break;
    }
  }
  // Stacked ramps/crowds could grow without bound; clamp the composites to
  // the single-event parse ceiling. std::clamp returns the value itself
  // when in range, so un-modulated days keep their exact 1.0 (the batch
  // bit-identity) and single events are never altered.
  p.lambda_mult = std::clamp(p.lambda_mult, 1.0 / 16.0, 16.0);
  p.flash_mult = std::clamp(p.flash_mult, 1.0 / 16.0, 16.0);

  // Effective device/internal IPv6 for the day. Only genuine state changes
  // are materialized, so a no-op event leaves the plan at its defaults.
  if (p.nat64 && !base.dual_stack_isp) {
    // A formerly v4-only home behind the new v6-only access network:
    // devices overwhelmingly speak v6 once a prefix finally exists.
    p.device_v6_ok_frac = 0.95;
    p.internal_v6_frac = std::max(static_internal_v6_frac, 0.75);
  } else if (base.dual_stack_isp) {
    if (base.broken_v6 && !cpe_broken)
      p.device_v6_ok_frac = 1.0;  // firmware fix landed
  } else if (isp_v6) {
    // Rollout wave flipped a v4-only home on: working device IPv6 and
    // a LAN that starts using it.
    p.device_v6_ok_frac = 1.0;
    p.internal_v6_frac = std::max(static_internal_v6_frac, 0.75);
  }
  // Device turnover closes part of the remaining broken-device gap. Only
  // homes with delegated IPv6 feel it — a fresh device without a prefix is
  // still v4-only on the WAN.
  if (v6_ok_uplift > 0.0 && isp_v6) {
    const double eff = p.device_v6_ok_frac >= 0.0 ? p.device_v6_ok_frac
                                                  : static_device_v6_ok_frac;
    p.device_v6_ok_frac = eff + (1.0 - eff) * v6_ok_uplift;
  }
  return p;
}

}  // namespace

traffic::DayPlan timeline_day_plan(const Timeline& tl, std::uint64_t seed,
                                   int index, int day, int days,
                                   const ResidenceTraits& base,
                                   const traffic::ResidenceConfig& sampled) {
  return plan_day(tl, draw_all_events(tl, seed, index, days), day, days, base,
                  sampled.internal_v6_frac, sampled.device_v6_ok_frac);
}

void apply_timeline(SampledFleet& fleet, const Timeline& tl,
                    std::uint64_t seed, int days) {
  // A provider captures its residence's traits: a hand-built fleet with
  // mismatched sizes must fail before any config changes.
  if (fleet.traits.size() != fleet.configs.size())
    throw std::invalid_argument(
        "apply_timeline: SampledFleet traits/configs size mismatch");
  if (tl.empty()) {
    for (auto& cfg : fleet.configs) cfg.day_plan_fn = nullptr;
    return;
  }
  // One shared timeline copy for every provider: the captured state per
  // residence is a shared_ptr, the per-event draws, the traits, and two
  // scalars — nothing proportional to the horizon.
  const auto shared_tl = std::make_shared<const Timeline>(tl);
  for (size_t i = 0; i < fleet.configs.size(); ++i) {
    traffic::ResidenceConfig& cfg = fleet.configs[i];
    // The per-(event, residence) draws are day-invariant: derive them once
    // per residence, not once per (residence, day). Days outside the
    // horizon keep the static configuration, even when a config's days
    // exceed the horizon given here: fired events must not leak into days
    // the timeline never covered.
    cfg.day_plan_fn = [shared_tl,
                       draws = draw_all_events(tl, seed, static_cast<int>(i),
                                               days),
                       base = fleet.traits[i], days,
                       internal_v6 = cfg.internal_v6_frac,
                       device_v6 = cfg.device_v6_ok_frac](int day) {
      return plan_day(*shared_tl, draws, day, days, base, internal_v6,
                      device_v6);
    };
  }
}

}  // namespace nbv6::engine
