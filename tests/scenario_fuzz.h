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
#include <string>

namespace nbv6::testutil {

/// Deterministically generate one scenario file text from `seed`. The text
/// always parses (generation is validity-directed, not mutation-based) and
/// deliberately stresses the lexer too: shuffled key order, comments,
/// blank lines, tab/space soup inside event specs. Distinct seeds give
/// distinct-but-overlapping grammar coverage; the full kind/key vocabulary
/// appears across any few dozen consecutive seeds.
std::string generate_scenario_text(std::uint64_t seed);

}  // namespace nbv6::testutil
