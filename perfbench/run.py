#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload fleet_year --seed 1 --seconds 20 --trace 0

Builds perfbench_driver from source (perfbench/CMakeLists.txt, Release, into
.bench_build or $CARGO_TARGET_DIR), runs one workload in its own process,
prints every metric it measured by name and unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end metrics, with --trace 1 its
per_layer metrics. Exit code 0 means every output check passed.

setup_s is timed here, from launching the driver until it prints READY
(its inputs exist): the median over the measured run and a few more
launches with --setup-only.

Other modes:
    --out FILE          also append this run's metrics to a results file
    --compare A B       compare two results files (refused when the host or
                        build fingerprints differ)
    --pin SEEDS         rewrite perfbench/expected.json: output digests of
                        fleet_year and web_survey for the seeds (e.g. 0-20)

See perfbench/README.md for the workloads, metrics and predictions.
"""

import argparse
import fcntl
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_year", "firehose_stream", "whatif_forest", "web_survey")
PINNED = ("fleet_year", "web_survey")
# Repository files the benchmark builds and reads; without them there is
# nothing to measure.
REQUIRED = ("CMakeLists.txt", "src", "tests/testutil.cpp",
            "examples/large_horizon.cfg")
DRIVER_TIMEOUT_S = 170
BUILD_JOBS = min(os.cpu_count() or 1, 4)
# setup_s is a median over launches of the driver: at least SETUP_MIN, and
# up to SETUP_MAX while their set-up has taken under SETUP_BUDGET_S.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 2.0


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build_driver():
    """Configure and build perfbench_driver; build output goes to stderr."""
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("no source tree to build: missing " + ", ".join(missing))
    out = build_dir()
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "perfbench_driver",
                      "-j", str(BUILD_JOBS)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env).returncode:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_driver")


def nominal_mhz(model, current_mhz):
    """The CPU's rated clock: cpufreq's maximum, else the GHz in the model
    name, else /proc/cpuinfo's clock (the current one where scaling is on)."""
    try:
        with open("/sys/devices/system/cpu/cpu0/cpufreq/cpuinfo_max_freq") as f:
            return round(int(f.read()) / 1000)
    except (OSError, ValueError):
        pass
    rated = re.search(r"([0-9.]+)\s*GHz", model)
    if rated:
        return round(float(rated.group(1)) * 1000)
    return current_mhz


def host_fingerprint():
    model, mhz = "unknown", 0
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "cpu MHz" and not mhz:
                    mhz = round(float(value))
    except OSError:
        pass
    return {"nproc": os.cpu_count() or 1, "cpu_model": model,
            "cpu_mhz": nominal_mhz(model, mhz)}


def fingerprint(result):
    build = result["build"]
    fp = host_fingerprint()
    fp.update({"compiler": build["compiler"], "build_type": build["type"],
               "march_native": "-march=native" in build["flags"].split(),
               "lanes": result["lanes"]})
    return fp


def run_driver(driver, args):
    """Run the driver, echoing its lines.

    Returns (returncode, RESULT dict or None, seconds from launching the
    process until it printed READY, or None).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([driver] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(DRIVER_TIMEOUT_S, proc.kill)
    timer.start()
    ready_s = result = None
    try:
        for line in proc.stdout:
            if line == "READY\n" and ready_s is None:
                ready_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                print(line, end="")
        rc = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    if rc < 0:
        fail(f"driver ended by signal {-rc} (time limit {DRIVER_TIMEOUT_S} s)")
    return rc, result, ready_s


def setup_samples(driver, args, first):
    """Launch-to-READY times: `first` (the measured run's own) and those of
    --setup-only launches, SETUP_MIN to SETUP_MAX in all."""
    times = [first]
    while len(times) < SETUP_MIN or (len(times) < SETUP_MAX
                                     and sum(times) < SETUP_BUDGET_S):
        rc, _, ready_s = run_driver(driver, args + ["--setup-only"])
        if rc != 0 or ready_s is None:
            fail(f"set-up launch exited {rc} without READY")
        times.append(ready_s)
    return times


def load_json(path):
    with open(path) as f:
        return json.load(f)


def pinned_digest(workload, seed, tiny):
    if tiny or workload not in PINNED:
        return None
    expected = load_json(os.path.join(HERE, "expected.json"))
    return expected.get(workload, {}).get(str(seed))


def driver_args(workload, seed, seconds, trace=False, tiny=False, digest=None):
    args = [f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}"]
    if trace:
        args.append("--trace")
    if tiny:
        args.append("--tiny")
    if digest:
        args.append(f"--expect-digest={digest}")
    return args


def select_metrics(result, trace):
    """BENCHMARK.json's metric set for this kind of run, with its units."""
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    measured = result["metrics"]
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None and trace:
            # A layer this workload never calls did no work.
            got = {"value": 0, "unit": m["unit"]}
        if got is None or got["value"] is None:
            fail(f"{result['workload']} did not measure {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def append_results(path, fp, workload, trace, metrics):
    data = {"fingerprint": fp, "runs": []}
    if os.path.exists(path):
        data = load_json(path)
        if data["fingerprint"] != fp:
            fail(f"{path} holds results from another host or build: "
                 f"{data['fingerprint']} != {fp}")
    data["runs"].append({"workload": workload, "trace": trace,
                         "metrics": {k: v["value"] for k, v in metrics.items()}})
    with open(path, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")


def summarize(data):
    """{(workload, metric): [values]} over a results file's untraced runs."""
    out = {}
    for run in data["runs"]:
        if run["trace"]:
            continue
        for name, value in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(value)
    return out


def compare(path_a, path_b):
    a, b = load_json(path_a), load_json(path_b)
    if a["fingerprint"] != b["fingerprint"]:
        diff = {k: (a["fingerprint"].get(k), b["fingerprint"].get(k))
                for k in set(a["fingerprint"]) | set(b["fingerprint"])
                if a["fingerprint"].get(k) != b["fingerprint"].get(k)}
        fail(f"refusing to compare results from different hosts or builds: {diff}")
    sa, sb = summarize(a), summarize(b)
    print(f"{'workload':16} {'metric':14} {'median A':>12} {'median B':>12} "
          f"{'B/A':>7} {'IQR/med A':>9} {'IQR/med B':>9}  n")
    for key in sorted(set(sa) & set(sb)):
        va, vb = sa[key], sb[key]
        ma, mb = statistics.median(va), statistics.median(vb)
        print(f"{key[0]:16} {key[1]:14} {ma:12.6g} {mb:12.6g} "
              f"{mb / ma if ma else float('nan'):7.3f} {spread(va):9.3f} "
              f"{spread(vb):9.3f}  {len(va)}/{len(vb)}")


def spread(values):
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return float("nan")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan")


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def pin(driver, seeds):
    expected = {}
    for workload in PINNED:
        expected[workload] = {}
        for seed in seeds:
            rc, result, _ = run_driver(driver,
                                       driver_args(workload, seed, 0.001))
            if rc != 0 or not result or not result["digest"]:
                fail(f"{workload} seed {seed}: no digest (exit {rc})")
            expected[workload][str(seed)] = result["digest"]
    with open(os.path.join(HERE, "expected.json"), "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs (the benchmark's own smoke test)")
    p.add_argument("--out", help="append this run's metrics to a results file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--pin", metavar="SEEDS")
    a = p.parse_args()

    if a.compare:
        compare(*a.compare)
        return 0
    if not a.workload and not a.pin:
        p.error("--workload is required")
    driver = build_driver()
    if a.pin:
        pin(driver, seed_list(a.pin))
        return 0

    args = driver_args(a.workload, a.seed, a.seconds, a.trace, a.tiny,
                       pinned_digest(a.workload, a.seed, a.tiny))
    rc, result, ready_s = run_driver(driver, args)
    if result is None or ready_s is None:
        fail(f"{a.workload}: driver exited {rc} without a result")
    if not a.trace:
        setup = setup_samples(driver, args, ready_s)
        print(f"  setup_s: {len(setup)} launches [" +
              " ".join(f"{t:.6g}" for t in setup) + "] s")
        result["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}
    fp = fingerprint(result)
    print("host: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']} {m['unit']}")
    if result["digest"]:
        print(f"  digest = {result['digest']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  failed_frac = {failed / attempted if attempted else 1.0} ratio "
          f"({failed} of {attempted} operations failed; "
          f"{result['failed_checks']} of {result['checks']} checks)")

    metrics = select_metrics(result, bool(a.trace))
    correct = rc == 0 and failed == 0 and attempted > 0
    if a.out:
        append_results(a.out, fp, a.workload, bool(a.trace), metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
