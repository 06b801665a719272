"""Smoke test of the benchmark: tiny runs of every workload, in seconds.

    python3 bench/smoke_test.py

It lives outside ``tests/`` so that the package's test suite times only the
tests, and it needs nothing beyond the standard library.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_tiny(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    """The full record and the final result line of one tiny run."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload} exited {out.returncode}:\n{out.stderr}")
    *_, record, result = out.stdout.strip().splitlines()
    return json.loads(record), json.loads(result)


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


class SmokeTest(unittest.TestCase):
    def test_end_to_end_metrics_printed_with_units(self):
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                record, result = run_tiny(workload, trace=0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertEqual(units(result["metrics"]), want)
                self.assertEqual(record["error_rate"]["unit"], "ratio")
                self.assertGreaterEqual(result["attempted"], 1)
                if workload != "run-search":
                    self.assertEqual(record["error_rate"]["value"], 0)
                    self.assertTrue(result["correct"])

    def test_per_layer_metrics_and_counts_repeat(self):
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first = run_tiny(workload, trace=1)
                _, second = run_tiny(workload, trace=1)
                self.assertEqual(units(first["metrics"]), want)
                counts = [n for n, unit in want.items() if unit == "count"]
                self.assertEqual(
                    {n: first["metrics"][n]["value"] for n in counts},
                    {n: second["metrics"][n]["value"] for n in counts},
                )

    def test_repeated_gossip_op_does_the_same_work(self):
        # fresh-input rule: an op rebuilds its MSC, so no memo carries over
        import random

        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(BENCH))
        import run
        import tracing
        import workloads

        pkg = run.load_package()
        op = workloads.build_gossip(pkg, random.Random(5), workloads.TINY)[0]
        tracer = tracing.Tracer()
        tracing.install(tracer, pkg)
        calls = []
        for _ in range(2):
            before = tracer.totals().get("msc.linearize", {"spans": 0})["spans"]
            self.assertTrue(workloads.run_gossip(pkg, op).correct)
            calls.append(tracer.totals()["msc.linearize"]["spans"] - before)
        self.assertGreater(calls[0], 0)
        self.assertEqual(calls[0], calls[1])


if __name__ == "__main__":
    unittest.main()
