// nbv6-lint-fixture: expect(none)
// Not compiled: lint fixture only. Exercises every way a file stays clean:
// banned tokens in comments and strings (stripped before matching), an
// ordered-map iteration, a documented draw site, and one explicit
// per-line suppression.
//
// Prose mentions that std::random_device, rand(), and getenv("X") are
// banned — none of which may trip the stripped scan.
#include <cstdint>
#include <map>
#include <string>

namespace stats {
// Declaration only; each call site documents its own derivation fold.
std::uint64_t splitmix64(std::uint64_t& state);
}

std::string ordered_serialize(const std::map<std::string, int>& counts) {
  std::string out = "do not call time(nullptr) or steady_clock::now()";
  for (const auto& kv : counts) out += kv.first;
  return out;
}

double documented_draw(std::uint64_t seed, int index) {
  // Same derivation idiom as sample_stage: fold the coordinates
  // through a distinct odd multiplier so the draw is order-independent.
  std::uint64_t state =
      seed ^ (0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(index) + 1));
  return static_cast<double>(stats::splitmix64(state) >> 11) * 0x1.0p-53;
}

long reviewed_exception() {
  // A reviewed, per-line escape hatch for the rare legitimate use.
  return static_cast<long>(time(nullptr));  // nbv6-lint: allow(wall-clock)
}
