// perfbench_driver: runs one benchmark workload in this process and prints
// human-readable lines followed by one `RESULT {json}` line. perfbench/run.py
// builds it, runs it, and turns the RESULT line into the benchmark's output.
//
//   perfbench_driver --workload=fleet_year --seed=1 --seconds=10
//                    [--trace] [--tiny] [--setup-only] [--expect-digest=HEX]
//
// Run it from the root of the source tree (fleet_year reads
// examples/large_horizon.cfg). The first stdout line is READY, printed once
// the inputs exist. The thread budget is N = min(hardware threads, 4).
//
// Exit codes: 0 every check passed, 1 an output check failed, 2 the run
// could not be made (bad flags, non-Release build, missing input, error).
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"
#include "bench_cli.h"

int main(int argc, char** argv) {
  using namespace perfbench;

  Options o;
  nbv6::bench::Cli cli("perfbench_driver",
                       "End-to-end benchmark workloads, timed from outside");
  cli.flag_string("workload", &o.workload,
                  "fleet_year | firehose_stream | whatif_forest | web_survey");
  cli.flag_u64("seed", &o.seed, "input seed");
  cli.flag_double("seconds", &o.seconds, "length of the timed phase");
  cli.flag_bool("trace", &o.trace, "per-layer decomposition run");
  cli.flag_bool("tiny", &o.tiny, "tiny inputs (smoke test)");
  cli.flag_bool("setup-only", &o.setup_only,
                "make the inputs, print READY and exit");
  cli.flag_string("expect-digest", &o.expect_digest,
                  "pinned output digest for this workload and seed");
  if (!cli.parse(argc, argv)) return cli.exit_code() == 0 ? 0 : 2;

  // Timings of a Debug or unoptimized build say nothing about the program.
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to run a build with asserts on\n");
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to run a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (o.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: --seconds must be > 0\n");
    return 2;
  }

  Report rep;
  int rc = 2;
  try {
    if (o.workload == "fleet_year") {
      rc = run_fleet_year(o, rep);
    } else if (o.workload == "firehose_stream") {
      rc = run_firehose_stream(o, rep);
    } else if (o.workload == "whatif_forest") {
      rc = run_whatif_forest(o, rep);
    } else if (o.workload == "web_survey") {
      rc = run_web_survey(o, rep);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   o.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", o.workload.c_str(), e.what());
    return 2;
  }
  if (rc != 0 || o.setup_only) return rc;
  rep.print(o);
  return rep.ok() ? 0 : 1;
}
