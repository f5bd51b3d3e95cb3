#!/usr/bin/env python3
"""The benchmark's own tests: tiny-size runs of every workload.

    python3 perfbench/test_perfbench.py

Builds the driver like any benchmark run (into .bench_build), then checks
that every workload prints every metric with its unit, that a perturbed
pinned digest fails every operation with a non-zero exit, that results from
different hosts are never compared, and that the benchmark refuses to run
without the source tree it measures.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
import run as bench  # noqa: E402
WORKLOADS = ("fleet_year", "firehose_stream", "whatif_forest", "web_survey")
SCRATCH = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "test_scratch")

# Metrics each workload's traced run must measure (not leave at 0).
LAYERS = {
    "fleet_year": ["engine.simulate.s", "traffic.generate.s", "flowmon.merge.s",
                   "engine.simulate.rss_mb", "traffic.flows"],
    "firehose_stream": ["engine.firehose.generate.s", "engine.firehose.emit.s",
                        "engine.firehose.lane_scaling", "engine.firehose.flows"],
    "whatif_forest": ["engine.pipeline.serial_s", "engine.forest.speedup",
                      "engine.forest.executed", "engine.pass_cache.entries"],
    "web_survey": ["web.universe.s", "dns.build_zone.s", "web.crawl.s",
                   "cloud.attribution.s", "web.sites", "cloud.records"],
}
# Printed lines every untraced run carries beyond BENCHMARK.json's set.
PRINTED = {"failed_frac": "ratio"}
PRINTED_FIREHOSE = {"flows_per_s": "flows/s", "flows_per_s_1lane": "flows/s"}


def run(*args, cwd=ROOT):
    p = subprocess.run([sys.executable, RUN] + list(args), cwd=cwd,
                       capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return p.returncode, p.stdout, result


def run_driver(*args):
    """The driver itself, built as run.py builds it: (returncode, RESULT)."""
    p = subprocess.run([bench.build_driver()] + list(args), cwd=ROOT,
                       capture_output=True, text=True)
    result = None
    for line in p.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    return p.returncode, result


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def printed_unit(stdout, name):
    """Unit of a `  name = value unit` line, or None."""
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == name and parts[1] == "=":
            return parts[3]
    return None


class Smoke(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        s = spec()
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    rc, out, result = run("--workload", w, "--seed", "3",
                                          "--seconds", "0.5", "--tiny",
                                          "--trace", str(trace))
                    self.assertEqual(rc, 0, out)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    wanted = s["per_layer" if trace else "end_to_end"]
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in wanted})
                    for m in wanted:
                        self.assertEqual(result["metrics"][m["name"]]["unit"],
                                         m["unit"])
                    if trace:
                        for name in LAYERS[w] + ["trace.overhead_s"]:
                            self.assertIn(name, result["metrics"])
                            if name in LAYERS[w]:
                                self.assertGreater(
                                    result["metrics"][name]["value"], 0, name)
                        continue
                    for m in wanted:
                        self.assertGreater(result["metrics"][m["name"]]["value"],
                                           0, m["name"])
                    printed = dict(PRINTED)
                    printed.update({m["name"]: m["unit"] for m in wanted})
                    if w == "firehose_stream":
                        printed.update(PRINTED_FIREHOSE)
                    for name, unit in printed.items():
                        self.assertEqual(printed_unit(out, name), unit, name)

    def test_perturbed_pinned_digest_fails_every_operation(self):
        for w in ("fleet_year", "web_survey"):
            with self.subTest(workload=w):
                rc, result = run_driver(f"--workload={w}", "--seed=1",
                                        "--seconds=0.5", "--tiny",
                                        "--expect-digest=0000000000000000")
                self.assertEqual(rc, 1)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"] / result["attempted"], 1.0)

    def test_true_digest_passes(self):
        rc, result = run_driver("--workload=web_survey", "--seed=1",
                                "--seconds=0.1", "--tiny")
        self.assertEqual(rc, 0)
        rc, result = run_driver("--workload=web_survey", "--seed=1",
                                "--seconds=0.1", "--tiny",
                                "--expect-digest=" + result["digest"])
        self.assertEqual(rc, 0)
        self.assertEqual(result["failed"], 0)


class Fingerprints(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.makedirs(SCRATCH)

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_compare_refuses_other_hosts(self):
        a = os.path.join(SCRATCH, "a.json")
        rc, out, _ = run("--workload", "firehose_stream", "--seconds", "0.1",
                         "--tiny", "--out", a)
        self.assertEqual(rc, 0, out)
        with open(a) as f:
            data = json.load(f)
        self.assertIn("cpu_model", data["fingerprint"])
        rc, out, _ = run("--compare", a, a)
        self.assertEqual(rc, 0, out)
        data["fingerprint"]["nproc"] += 1
        b = os.path.join(SCRATCH, "b.json")
        with open(b, "w") as f:
            json.dump(data, f)
        rc, _, _ = run("--compare", a, b)
        self.assertEqual(rc, 2)

    def test_refuses_without_source_tree(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "fleet_year", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare, capture_output=True,
                           text=True, timeout=180)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
