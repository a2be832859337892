#!/usr/bin/env python3
"""Tests of the benchmark itself, on the tiny inputs of --quick mode.

    python3 perfbench/test_perfbench.py

For every workload, untraced and traced, checks that the result line meets
BENCHMARK.json (exact keys, every listed metric with its unit), that the
output checks pass, and that the table prints every metric the workload
defines with its unit and sample count. Also checks that the quality
numbers repeat exactly at one seed, and that the benchmark refuses to run
without the repository sources.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Metrics each workload prints (beyond the BENCHMARK.json sets), untraced
# and traced. The BENCHMARK.json sets are the ones every workload shares.
PRINTED = {
    ("query_scan", "0"): ["nn_p99_us", "range_p50_us", "batch8_p50_us", "est_p50_us",
                          "failed_frac"],
    ("ingest_mix", "0"): ["nn_p99_us", "failed_frac"],
    ("routed", "0"): ["nn_p99_us", "range_p50_us", "batch8_p50_us", "est_p50_us", "failed_frac"],
    ("query_scan", "1"): ["engine.lane_depth_max", "engine.refused", "engine.expired",
                          "index.range_hits", "index.batch8_over_nn"],
    ("ingest_mix", "1"): ["engine.nn_overlap_us", "engine.nn_clear_us", "index.range_hits"],
    ("routed", "1"): ["client.ping_us", "client.nn_us", "router.fanout_over_sum",
                      "router.fanout_floor", "router.point_miss_frac", "index.batch8_over_nn"],
}
ROW = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+(\d+)$")


def run(workload, trace, seed=5, cwd=ROOT, bench=HERE):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", trace, "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def table(stdout):
    rows = {}
    for line in stdout.splitlines():
        match = ROW.match(line)
        if match and match.group(1) != "metric":
            rows[match.group(1)] = (float(match.group(2)), match.group(3), int(match.group(4)))
    return rows


class QuickModeTest(unittest.TestCase):
    def check(self, workload, trace):
        completed = run(workload, trace)
        self.assertEqual(completed.returncode, 0, completed.stdout + completed.stderr)
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for metric in listed:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])
        rows = table(completed.stdout)
        for name in [m["name"] for m in listed] + PRINTED[(workload, trace)]:
            self.assertIn(name, rows, f"{workload} trace={trace} does not print {name}")
            self.assertGreater(rows[name][2], 0, f"{name} has no samples")
        self.assertIn("# host cpu=", completed.stdout)
        return result, rows

    def test_query_scan(self):
        self.check("query_scan", "0")

    def test_query_scan_traced(self):
        self.check("query_scan", "1")

    def test_ingest_mix(self):
        self.check("ingest_mix", "0")

    def test_ingest_mix_traced(self):
        self.check("ingest_mix", "1")

    def test_routed(self):
        self.check("routed", "0")

    def test_routed_traced(self):
        _, rows = self.check("routed", "1")
        # doc<N> ids misroute under the router's lexicographic id ranges.
        self.assertGreater(rows["router.point_miss_frac"][0], 0.0)

    def test_quality_repeats_at_one_seed(self):
        first = json.loads(run("routed", "0").stdout.strip().splitlines()[-1])
        second = json.loads(run("routed", "0").stdout.strip().splitlines()[-1])
        for name in ("nn_recall10", "est_rel_rmse"):
            self.assertEqual(first["metrics"][name]["value"], second["metrics"][name]["value"], name)
        self.assertEqual(first["failed"], second["failed"])

    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_build" / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        try:
            completed = run("routed", "0", cwd=bare, bench=bare / HERE.name)
            self.assertNotEqual(completed.returncode, 0)
            self.assertFalse(completed.stdout.strip(), completed.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
