// Scenario fuzzing: randomized configs that hunt determinism bugs.
//
// The timeline subsystem's guarantees — every per-residence decision a
// pure function of (seed, event ordinal, index, day), lane-count
// invariance, lazy day plans equal to eager evaluation, byte-stable
// replay — are only as strong as the scenarios that exercise them. Seven
// hand-written configs cover the happy paths; this module generates
// arbitrarily many adversarial ones: boundary fractions (0, 1, one-ulp
// neighbours), one-day horizons, overlapping and degenerate event windows,
// every event kind in every legal shape, stacked renumbers and competing
// CGN budgets.
//
// Each generated config is valid by construction (it must parse), and the
// differential harness in tests/testutil checks the invariants on it.
// A config that survives is a candidate for promotion into
// examples/scenarios/ with a committed golden; one that fails is a
// reproducer, printable verbatim from its seed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "engine/fleet.h"

namespace nbv6::engine {

/// Size caps for generated scenarios. Defaults keep one differential check
/// cheap enough to run hundreds per CI job (population x horizon stays in
/// the low thousands of residence-days) while leaving room for every
/// grammar shape.
struct ScenarioFuzzOptions {
  int max_residences = 32;
  int max_days = 56;
  int max_events = 8;
};

/// Deterministically generate one scenario file text from `seed`. The text
/// always parses (generation is validity-directed, not mutation-based) and
/// deliberately stresses the lexer too: shuffled key order, comments,
/// blank lines, tab/space soup inside event specs. Distinct seeds give
/// distinct-but-overlapping grammar coverage; the full kind/key vocabulary
/// appears across any few dozen consecutive seeds.
std::string generate_scenario_text(std::uint64_t seed,
                                   const ScenarioFuzzOptions& opts = {});

/// Canonical text form of a config: every scalar key in fixed order,
/// doubles rendered with %.17g (so text equality is bit equality), one
/// timeline line per event in ordinal order carrying exactly its kind's
/// keys. parse(to_config_text(cfg)) == cfg for every parseable cfg — the
/// renderer half of the round-trip check, and the tool that promotes a
/// surviving fuzz config into a committed scenario file.
std::string to_config_text(const FleetConfig& cfg);

/// Parse -> render -> reparse -> compare. nullopt on success; otherwise a
/// description of the first failure (initial parse rejection, renderer
/// output rejected, or field mismatch after the round trip).
std::optional<std::string> check_parse_round_trip(std::string_view text);

}  // namespace nbv6::engine
