"""Self-tests of the benchmark at smoke sizes (about a minute).

    python3 perfbench/selftest.py

Checks the result-line contract of run.py on every workload in both
modes, that each layer records spans on the workloads where it runs,
that a corrupted reference or a wrong output counts as a failed
operation, that the launcher scales passes and set-up by the host probe,
and that run.py refuses to run without the program sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_out"

# span names each workload must record (tracing._TARGETS groups them)
_STOKES = {"splines", "geometry", "spaces", "topology", "assembly.assemble", "assembly.bc",
           "assembly.solve", "assembly.solve.factor", "assembly.solve.trisolve",
           "harness", "harness.emit"}
EXPECTED_SPANS = {
    "cavity": _STOKES | {"harness.spsolve"},
    "ladders": _STOKES | {"projection"},
    "couette": _STOKES,
    "forms": {"splines", "geometry", "projection", "spaces", "topology", "assembly.assemble"},
}


def scratch():
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=SCRATCH)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class ResultLineTest(unittest.TestCase):
    def check_run(self, workload, trace, expected_metrics):
        proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--size", "smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in expected_metrics])
        for m in expected_metrics:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result["metrics"]

    def test_end_to_end_every_workload(self):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check_run(w["name"], 0, BENCHMARK["end_to_end"])
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_per_layer_every_workload(self):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 1, BENCHMARK["per_layer"])

    def test_benchmark_json_lists_the_layer_metrics(self):
        listed = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
        self.assertEqual(listed, LAYER_METRICS)
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(worker.WORKLOADS))


class LayerSpanTest(unittest.TestCase):
    def test_every_layer_records_spans(self):
        originals = (worker.harness.solve, worker.harness.assemble_vvp, worker.harness.spla)
        for name, expected in EXPECTED_SPANS.items():
            with self.subTest(workload=name), scratch() as tmp:
                workload = worker.WORKLOADS[name](seed=5, size="smoke")
                tracer = Tracer().install()
                try:
                    workload.run(Path(tmp))
                finally:
                    tracer.uninstall()
                recorded = {span[0] for span in tracer.spans}
                self.assertLessEqual(expected, recorded)
                metrics = tracer.layer_metrics()
                if "assembly.solve.factor" in expected:
                    self.assertGreater(metrics["assembly.solve.lu_nnz"], 0)
                    self.assertGreaterEqual(metrics["assembly.solve.refine_solves"], 1)
        self.assertEqual(
            (worker.harness.solve, worker.harness.assemble_vvp, worker.harness.spla), originals
        )


class FailureCountingTest(unittest.TestCase):
    def run_and_check(self, name, mutate):
        reference = worker.load_reference(name, "smoke")
        with scratch() as tmp:
            workload = worker.WORKLOADS[name](seed=0, size="smoke")
            results = workload.run(Path(tmp))
            clean = workload.check(results, reference)
            broken = copy.deepcopy(reference)
            mutate(broken)
            corrupted = workload.check(results, broken)
        self.assertFalse([op for op in clean if op[1]], clean)
        return [op for op in corrupted if op[1]]

    def test_corrupted_ladder_error(self):
        def mutate(ref):
            ref["curved-square/2"][1]["err_u"] *= 1.001

        failed = self.run_and_check("ladders", mutate)
        self.assertEqual([op[0] for op in failed], ["curved-square/2/level1"])

    def test_corrupted_couette_speed(self):
        def mutate(ref):
            ref[0]["speed_err_inner"] *= 1.001

        failed = self.run_and_check("couette", mutate)
        self.assertEqual([op[0] for op in failed], ["level0"])

    def test_corrupted_cavity_profile(self):
        def mutate(ref):
            ref["vx_centerline"][50] += 1e-6

        failed = self.run_and_check("cavity", mutate)
        self.assertEqual([op[0] for op in failed], ["solve"])

    def test_wrong_forms_output(self):
        workload = worker.Forms(seed=0, size="smoke")
        res = workload.run(None)
        self.assertFalse([op for op in workload.check(res) if op[1]])
        res["dT"].coeffs[3] += 1e-6  # breaks the commuting diagram
        res["mass"][2] = res["mass"][2] * 1.1
        failed = [op[0] for op in workload.check(res) if op[1]]
        self.assertEqual(failed, ["form0", "mass2"])


class LauncherTest(unittest.TestCase):
    def test_scaling_by_the_probe(self):
        import run

        ref = run.PROBE_REFERENCE_S
        # a pass at half the reference speed, then one of two steps: the first
        # between half and full speed, the second at full speed
        report = {"steps": [[4.0], [1.0, 1.0]], "probes": [2 * ref, 2 * ref, ref, ref],
                  "ready": 10.0}
        self.assertEqual(run.walls(report), [4.0, 2.0])
        for got, expected in zip(run.scaled_walls(report), [2.0, 2.0 / 3.0 + 1.0], strict=True):
            self.assertAlmostEqual(got, expected)
        self.assertAlmostEqual(run.scaled_setup(report, started=9.0), 0.5)

    def test_refuses_without_sources(self):
        with scratch() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "forms", "--seed", "1", "--seconds", "1", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
