// fuzz_scenarios: standalone differential scenario fuzzer.
//
//   fuzz_scenarios [--count=500 --base-seed=1 --outdir=fuzz-failures]
//
// Generates `count` scenarios starting at `base_seed`, runs the full
// differential battery on each (parse/render round trip,
// lazy-vs-materialized plan cells, 1/4/8-lane byte-identical replays,
// shard-reuse parity, windowed metric finiteness), and exits non-zero if
// any scenario fails.
// Failing configs are written to `outdir` as fail_<seed>.cfg next to a
// .err file with the failure description — CI uploads that directory as
// an artifact, and the .cfg file alone reproduces the failure under
// scenario_fuzz_test.
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_cli.h"
#include "scenario_fuzz.h"
#include "testutil.h"
#include "traffic/service_catalog.h"

int main(int argc, char** argv) {
  using namespace nbv6;
  std::uint64_t count = 500;
  std::uint64_t base = 1;
  std::string outdir = "fuzz-failures";

  bench::Cli cli("fuzz_scenarios", "Differential scenario fuzzer");
  cli.flag_u64("count", &count, "scenarios to generate");
  cli.flag_u64("base-seed", &base, "first scenario seed");
  cli.flag_string("outdir", &outdir, "failing-config output directory");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  const auto catalog = traffic::build_paper_catalog();
  std::uint64_t failures = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t seed = base + i;
    const std::string text = testutil::generate_scenario_text(seed);
    auto err = testutil::fuzz_check_scenario(text, catalog);
    if (err) {
      ++failures;
      std::error_code ec;
      std::filesystem::create_directories(outdir, ec);
      const std::string stem = outdir + "/fail_" + std::to_string(seed);
      testutil::write_file(stem + ".cfg", text);
      testutil::write_file(stem + ".err", *err + "\n");
      std::fprintf(stderr, "FAIL seed=%llu: %s\n",
                   static_cast<unsigned long long>(seed), err->c_str());
    }
    if ((i + 1) % 50 == 0 || i + 1 == count)
      std::fprintf(stderr, "fuzz_scenarios: %llu/%llu checked, %llu failed\n",
                   static_cast<unsigned long long>(i + 1),
                   static_cast<unsigned long long>(count),
                   static_cast<unsigned long long>(failures));
  }
  if (failures != 0) {
    std::fprintf(stderr, "fuzz_scenarios: %llu failing configs in %s/\n",
                 static_cast<unsigned long long>(failures), outdir.c_str());
    return 1;
  }
  std::printf("fuzz_scenarios: %llu scenarios, all invariants held\n",
              static_cast<unsigned long long>(count));
  return 0;
}
