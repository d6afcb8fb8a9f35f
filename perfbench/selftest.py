"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Smoke-runs every workload on short streams in both modes and checks the
metric names and the output schema, checks that corrupted outputs fail the
correctness checks, and that the benchmark refuses to run without the
package's sources. Takes about two minutes.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import BENCH, WORK, WORKLOADS  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class SmokeTest(unittest.TestCase):
    def test_every_workload_prints_the_declared_metrics(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(WORKLOADS))
        for name in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    proc = bench(name, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True, proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]), [m["name"] for m in BENCH[key]])
                    for metric in result["metrics"].values():
                        self.assertEqual(set(metric), {"value", "unit"})
                        self.assertIsInstance(metric["value"], float)
                        self.assertTrue(math.isfinite(metric["value"]))


class CorruptedOutputTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        proc = bench("lorenz-b1", 0)
        assert proc.returncode == 0, proc.stderr
        cls.lines = (WORK / "runs" / "lorenz-b1" / "full" / "steps.jsonl").read_text().splitlines(True)
        cls.expected = len(cls.lines)
        cls.path = WORK / "selftest" / "steps.jsonl"
        cls.path.parent.mkdir(parents=True, exist_ok=True)

    def check(self, lines) -> list:
        self.path.write_text("".join(lines))
        return checks.check_records(self.path, "fit", self.expected, (3, 10))[1]

    def test_intact_output_passes(self):
        self.assertEqual(self.check(self.lines), [])

    def test_missing_record_fails(self):
        self.assertTrue(self.check(self.lines[:-1]))

    def test_torn_line_fails(self):
        self.assertTrue(self.check(self.lines[:-1] + [self.lines[-1][:40]]))

    def test_non_finite_coef_fails(self):
        record = json.loads(self.lines[3])
        record["coef_mean"][0][1] = float("nan")
        self.assertTrue(self.check(self.lines[:3] + [json.dumps(record) + "\n"] + self.lines[4:]))

    def test_missing_key_fails(self):
        record = json.loads(self.lines[3])
        del record["coef_std"]
        self.assertTrue(self.check(self.lines[:3] + [json.dumps(record) + "\n"] + self.lines[4:]))

    def test_changed_final_mean_fails_against_the_replay(self):
        final = json.loads(self.lines[-1])
        moved = json.loads(self.lines[-1])
        moved["coef_mean"][2][3] *= 1.0 + 1e-6
        self.assertEqual(checks.compare_final(final, final, "fit"), [])
        self.assertTrue(checks.compare_final(moved, final, "fit"))


class StandaloneTest(unittest.TestCase):
    def test_fails_without_the_package_sources(self):
        alone = WORK / "standalone"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        shutil.copytree(HERE, alone / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = bench("lorenz-b1", 0, cwd=alone)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
