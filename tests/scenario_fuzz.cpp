#include "scenario_fuzz.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "engine/timeline.h"
#include "stats/rng.h"

namespace nbv6::testutil {

using engine::cfgparse::format_double;

namespace {

// Size caps: one differential check stays cheap enough to run hundreds per
// CI job (population x horizon in the low thousands of residence-days)
// while leaving room for every grammar shape.
constexpr int kMaxResidences = 32;
constexpr int kMaxDays = 56;
constexpr int kMaxEvents = 8;

// Boundary-biased draws: determinism bugs live at the edges (a fraction of
// exactly 0 or 1 flips every per-residence draw the same way; a one-ulp
// neighbour flips almost none), so the generator lands there often.
double fuzz_fraction(stats::Rng& rng) {
  switch (rng.below(8)) {
    case 0: return 0.0;
    case 1: return 1.0;
    case 2: return 1e-12;
    case 3: return 1.0 - 1e-12;
    case 4: return 0.5;
    default: return rng.uniform();
  }
}

int fuzz_pick(stats::Rng& rng, const std::vector<int>& boundary, int lo,
              int hi) {
  if (rng.chance(0.5))
    return boundary[static_cast<size_t>(
        rng.below(static_cast<std::uint64_t>(boundary.size())))];
  return static_cast<int>(rng.between(lo, hi));
}

/// Random whitespace between event-spec tokens: space, tab, or runs of
/// both. The parser must treat them all identically.
std::string fuzz_sep(stats::Rng& rng) {
  switch (rng.below(4)) {
    case 0: return "\t";
    case 1: return "  ";
    case 2: return " \t ";
    default: return " ";
  }
}

/// One scalar "key = value" line, with optional comment/spacing noise.
void emit_line(std::string& out, stats::Rng& rng, const std::string& key,
               const std::string& value) {
  switch (rng.below(4)) {
    case 0: out += key + "=" + value; break;
    case 1: out += key + " =\t" + value; break;
    case 2: out += "  " + key + " = " + value + "   "; break;
    default: out += key + " = " + value; break;
  }
  if (rng.chance(0.2)) out += "  # fuzz";
  out += '\n';
  if (rng.chance(0.15)) out += "# interleaved comment line\n";
  if (rng.chance(0.1)) out += "\n";
}

struct WindowSpec {
  std::string text;  ///< the day=/start=/end= tokens
  int start_day = 0;
};

/// A window shape: pinned day, open-ended start, closed range (possibly
/// degenerate start==end, possibly running far past the horizon — both
/// legal, both clamped at evaluation time). start is always < days so the
/// horizon validation passes.
WindowSpec fuzz_window(stats::Rng& rng, int days, const std::string& sep) {
  WindowSpec w;
  w.start_day = static_cast<int>(rng.below(static_cast<std::uint64_t>(days)));
  switch (rng.below(4)) {
    case 0:
      w.text = "day=" + std::to_string(w.start_day);
      break;
    case 1:
      w.text = "start=" + std::to_string(w.start_day);  // to the horizon
      break;
    case 2: {
      // Tail past the horizon: evaluation clamps to days-1.
      int end = w.start_day + static_cast<int>(rng.below(
                                  static_cast<std::uint64_t>(2 * days + 1)));
      w.text = "start=" + std::to_string(w.start_day) + sep +
               "end=" + std::to_string(end);
      break;
    }
    default: {
      int end = w.start_day +
                static_cast<int>(rng.below(static_cast<std::uint64_t>(
                    std::max(1, days - w.start_day))));
      w.text = "start=" + std::to_string(w.start_day) + sep +
               "end=" + std::to_string(end);
      break;
    }
  }
  return w;
}

/// Ramp/flash multiplier: boundary-biased inside the parser's (0, 16]
/// range, but capped low enough that a max_events stack of multiplicative
/// ramps cannot push per-tick arrival counts into fuzz-run-hostile
/// territory (the day-state composition also clamps composites at 16).
double fuzz_mult(stats::Rng& rng) {
  switch (rng.below(8)) {
    case 0: return 16.0;   // the parse ceiling
    case 1: return 1.0;    // a no-op ramp — must stay bit-transparent
    case 2: return 0.0625; // strong ramp-down
    case 3: return 2.0;
    default: return rng.uniform(0.25, 4.0);
  }
}

std::string fuzz_event_line(stats::Rng& rng, int days) {
  static constexpr const char* kKinds[] = {
      "rollout_wave",   "cpe_fix",        "outage",
      "nat64_migration", "seasonal",       "prefix_renumber",
      "service_outage", "cgn_exhaustion", "device_turnover",
      "lambda_ramp",    "flash_crowd"};
  const std::string kind = kKinds[rng.below(std::size(kKinds))];
  const std::string sep = fuzz_sep(rng);
  WindowSpec w = fuzz_window(rng, days, sep);

  std::string spec = w.text;
  if (rng.chance(0.8))
    spec += sep + "frac=" + format_double(fuzz_fraction(rng));

  if (kind == "seasonal") {
    if (rng.chance(0.7))
      spec += sep + "amp=" + format_double(fuzz_fraction(rng));
    if (rng.chance(0.7))
      spec += sep + "period=" + std::to_string(rng.between(1, 3 * days));
  } else if (kind == "outage" || kind == "service_outage") {
    if (rng.chance(0.5))
      spec += sep + "len=" + std::to_string(rng.between(1, days + 3));
  }
  if (kind == "service_outage") {
    // Mostly real catalog indices (the paper catalog has 39 services) so
    // the outage actually bites; sometimes the mask's upper range.
    int svc = rng.chance(0.8) ? static_cast<int>(rng.below(39))
                              : static_cast<int>(rng.between(39, 63));
    spec += sep + "svc=" + std::to_string(svc);
  } else if (kind == "cgn_exhaustion") {
    static constexpr int kBudgets[] = {0, 1, 10, 100, 1000, 100000};
    int ports = rng.chance(0.7)
                    ? kBudgets[rng.below(std::size(kBudgets))]
                    : static_cast<int>(rng.between(0, 5000));
    spec += sep + "ports=" + std::to_string(ports);
  } else if (kind == "device_turnover") {
    spec += sep + "rate=" + format_double(fuzz_fraction(rng));
  } else if (kind == "lambda_ramp") {
    spec += sep + "mult=" + format_double(fuzz_mult(rng));
  } else if (kind == "flash_crowd") {
    spec += sep + "hour=" + std::to_string(rng.below(24));
    if (rng.chance(0.6))
      spec += sep + "hours=" + std::to_string(rng.between(1, 24));
    spec += sep + "mult=" + format_double(fuzz_mult(rng));
  }
  return "timeline." + kind + " = " + spec;
}

}  // namespace

std::string generate_scenario_text(std::uint64_t seed) {
  stats::Rng rng(seed ^ 0x5ce7a7105fu);
  std::string out = "# fuzz scenario seed=" + std::to_string(seed) + "\n";

  const int days = fuzz_pick(rng, {1, 2, 7, kMaxDays}, 1, kMaxDays);
  const int residences =
      fuzz_pick(rng, {1, 2, 3, kMaxResidences}, 1, kMaxResidences);

  // Scalar section: a random subset in a random order (the parser must not
  // care), always including the keys that shape the run.
  struct KV {
    std::string key, value;
  };
  std::vector<KV> lines;
  lines.push_back({"residences", std::to_string(residences)});
  lines.push_back({"days", std::to_string(days)});
  lines.push_back({"seed", std::to_string(stats::splitmix64(seed))});
  for (const char* key :
       {"dual_stack_isp_frac", "broken_v6_frac", "heavy_streamer_frac",
        "background_only_frac", "opt_out_frac", "absence_prob"}) {
    if (rng.chance(0.6))
      lines.push_back({key, format_double(fuzz_fraction(rng))});
  }
  if (rng.chance(0.6)) {
    // min <= max by construction, including the degenerate min == max == 0
    // fleet (background chatter only).
    double lo = rng.chance(0.25) ? 0.0 : rng.uniform(0.0, 6.0);
    double hi = rng.chance(0.25) ? lo : lo + rng.uniform(0.0, 6.0);
    lines.push_back({"activity_scale_min", format_double(lo)});
    lines.push_back({"activity_scale_max", format_double(hi)});
  }
  if (rng.chance(0.5)) {
    static constexpr const char* kModes[] = {"batch", "poisson", "uniform"};
    lines.push_back({"arrival.mode",
                     kModes[rng.below(std::size(kModes))]});
    if (rng.chance(0.7)) {
      // Mostly coarse ticks (the differential battery replays every
      // scenario several times); 7 does not divide 3600, exercising the
      // integer slot-boundary tiling; 60 occasionally for realism.
      static constexpr int kTicks[] = {1, 2, 3, 4, 6, 7, 12};
      int tph = rng.chance(0.15)
                    ? 60
                    : kTicks[rng.below(std::size(kTicks))];
      lines.push_back({"arrival.ticks_per_hour", std::to_string(tph)});
    }
  }
  // Fisher-Yates with the scenario's own rng: key order is part of the
  // grammar surface being fuzzed.
  for (size_t i = lines.size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng.below(i));
    std::swap(lines[i - 1], lines[j]);
  }
  for (const auto& kv : lines) emit_line(out, rng, kv.key, kv.value);

  const int events =
      static_cast<int>(rng.below(static_cast<std::uint64_t>(kMaxEvents + 1)));
  for (int e = 0; e < events; ++e) {
    out += fuzz_event_line(rng, days);
    if (rng.chance(0.2)) out += "  # event";
    out += '\n';
  }
  return out;
}

}  // namespace nbv6::testutil
