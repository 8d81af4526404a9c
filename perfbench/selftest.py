"""Self-test of the benchmark's own code.

    python3 perfbench/selftest.py

Runs every workload, untraced and traced, at the smallest size the gates
allow, and checks the output contract: every declared metric is printed with
its unit, the correctness checks ran and passed.  It also checks the tracer's
self-time arithmetic, that layers.json covers every per-layer metric, and
that the benchmark refuses to run without the sources.  No time bounds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True,
    )


class WorkloadOutput(unittest.TestCase):
    def check_output(self, workload: str, trace: int) -> None:
        proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--size", "smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 3)
        declared = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        printed = {ln.split()[0]: ln.split()[2] for ln in lines[:-1] if len(ln.split()) > 2}
        for metric in declared:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])
            self.assertEqual(printed.get(metric["name"]), metric["unit"], metric["name"])
            if not trace:
                self.assertGreater(got["value"], 0, metric["name"])
        self.assertIn("checks_failed_frac", printed)

    def test_workloads(self) -> None:
        for workload in [w["name"] for w in BENCH["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_output(workload, trace)


class TracerArithmetic(unittest.TestCase):
    def test_self_time_excludes_children(self) -> None:
        tracer = Tracer()
        # outer [0, 10] holds inner [1, 4] and inner [5, 6]; inner [1, 4] holds leaf [2, 3]
        tracer.names = ["outer", "inner", "leaf", "inner"]
        tracer.starts = [0.0, 1.0, 2.0, 5.0]
        tracer.ends = [10.0, 4.0, 3.0, 6.0]
        tracer.parents = [-1, 0, 1, 0]
        summary = tracer.summary()
        self.assertEqual(summary["outer"], {"calls": 1, "busy_s": 10.0, "self_s": 6.0})
        self.assertEqual(summary["inner"], {"calls": 2, "busy_s": 4.0, "self_s": 3.0})
        self.assertEqual(summary["leaf"], {"calls": 1, "busy_s": 1.0, "self_s": 1.0})


class LayerMap(unittest.TestCase):
    def test_every_layer_metric_is_mapped(self) -> None:
        with open(os.path.join(HERE, "layers.json")) as fh:
            mapped = [m for row in json.load(fh)["layers"] for m in row["metrics"]]
        self.assertEqual(sorted(mapped), sorted(m["name"] for m in BENCH["per_layer"]))


class WithoutSources(unittest.TestCase):
    def test_refuses_to_run(self) -> None:
        bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = run_bench("--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
