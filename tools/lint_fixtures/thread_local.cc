// nbv6-lint-fixture: expect(thread-local)
// Not compiled: lint fixture only. A per-thread cache makes a result depend
// on which lane ran which residence, so the lane count leaks into output.
#include <cstdint>

std::uint64_t next_draw() {
  thread_local std::uint64_t state = 1;
  return state = state * 6364136223846793005ull + 1;
}
