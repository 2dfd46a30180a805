"""Tests of the benchmark itself.

    python3 bench/test_bench.py          (or: python3 -m pytest bench)

Run from the repository root.  Takes about four minutes: every case runs
one whole block (`--seconds 0`) untraced and traced, and a finite-lattice
block holds the star6 bifurcation fixture.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
import run  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload, seed, trace, cwd=ROOT):
    """One block of `workload`: the loop stops at the first block end."""
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def counts(proc):
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "count/op")}


class DeterminismTest(unittest.TestCase):
    def test_traced_counts_repeat(self):
        """Two traced runs of the same ops give identical work counts."""
        for workload in sorted(workloads.WORKLOADS):
            with self.subTest(workload=workload):
                first = run_bench(workload, 5, 1)
                second = run_bench(workload, 5, 1)
                self.assertEqual(first.returncode, 0, first.stderr)
                self.assertEqual(second.returncode, 0, second.stderr)
                a, b = counts(first), counts(second)
                self.assertTrue(any(a.values()))
                self.assertEqual(a, b)


class ContractTest(unittest.TestCase):
    def test_fails_without_library(self):
        """In a directory holding only BENCHMARK.json and bench/ (no src/)
        the benchmark exits non-zero and prints no result."""
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = run_bench("sheaf-cli", 1, 0, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_inputs_follow_the_seed(self):
        rng_a = workloads._block_rng(7, "multicommodity-gap", 0)
        rng_b = workloads._block_rng(7, "multicommodity-gap", 0)
        rng_c = workloads._block_rng(8, "multicommodity-gap", 0)
        a = workloads.gap_network(rng_a, 13).text()
        self.assertEqual(a, workloads.gap_network(rng_b, 13).text())
        self.assertNotEqual(a, workloads.gap_network(rng_c, 13).text())


class HostSpeedTest(unittest.TestCase):
    def test_scale_uses_probes_on_the_ops_time_scale(self):
        host = run.HostSpeed()
        host.times = [0.0, 1.0, 1.01, 2.0, 10.0, 30.0]
        nominal = run.PROBE_NOMINAL_S
        host.samples = [nominal, nominal, 2 * nominal, 2 * nominal,
                        nominal, nominal]
        # a 5 ms op between probes 2 and 3: both ran at half speed
        self.assertAlmostEqual(host.scale(1.012, 0.005, 2), 0.0025)
        # a 10 s op after probe 1: probes within 20 s of it, 1.4x slower
        self.assertAlmostEqual(host.scale(1.005, 8.9, 1),
                               8.9 * 5 / 7)


class JudgeTest(unittest.TestCase):
    """Which failures count as known baseline defects."""

    def judge(self, verdict, expected, error=None):
        op = workloads.Op("h1", "label", None, lambda result: verdict)
        reference = run.Reference(ops=[expected])
        tally = run.Tally()
        run.judge(op, None if error else "result", error, 0, reference,
                  tally)
        return tally.failed, tally.failed_known

    def test_reference_decides_for_covered_ops(self):
        shaped = workloads.Verdict(False, "d1", known=True)
        self.assertEqual(self.judge(shaped, None), (1, 1))
        self.assertEqual(self.judge(shaped, "d1"), (1, 0))
        plain = workloads.Verdict(False, "d1")
        self.assertEqual(self.judge(plain, None), (1, 1))
        self.assertEqual(self.judge(None, None, KeyError("table")), (1, 1))
        self.assertEqual(self.judge(None, "d1", KeyError("table")), (1, 0))

    def test_differing_digest_fails(self):
        ok = workloads.Verdict(True, "d2")
        self.assertEqual(self.judge(ok, "d1"), (1, 0))
        self.assertEqual(self.judge(ok, "d2"), (0, 0))
        self.assertEqual(self.judge(ok, None), (0, 0))

    def test_structure_decides_for_uncovered_ops(self):
        shaped = workloads.Verdict(False, "d1", known=True)
        plain = workloads.Verdict(False, "d1")
        self.assertEqual(self.judge(shaped, run.UNRECORDED), (1, 1))
        self.assertEqual(self.judge(plain, run.UNRECORDED), (1, 0))
        self.assertEqual(self.judge(None, run.UNRECORDED, KeyError("t")),
                         (1, 0))

    def test_h1_defect_shape(self):
        def shape(edges):
            return workloads.NetSpec("table", ["a", "b", "c"], dict(
                ("f%d" % k, e) for k, e in enumerate(edges)), {})
        self.assertTrue(shape([("a", "a"), ("a", "b")]).h1_defect_shape())
        self.assertTrue(shape([("a", "b"), ("b", "a"), ("b", "c"),
                               ("c", "b")]).h1_defect_shape())
        self.assertFalse(shape([("a", "a"), ("b", "c")]).h1_defect_shape())
        self.assertFalse(shape([("a", "b"), ("a", "b"), ("b", "a")])
                         .h1_defect_shape())


if __name__ == "__main__":
    unittest.main()
