"""Self-tests of the benchmark itself (not of gfclust).

    python3 perfbench/selftest.py

They use the few-second `smoke` workload, write under `.bench_work/`, and
need the gfclust sources under `src/`.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def smoke_pass(traced: bool) -> tuple[run.Bench, dict]:
    bench = run.Bench("smoke", workloads.DEFAULT_SEED, 0.0)
    try:
        return bench, bench.run_pass(traced=traced)
    finally:
        bench.close()


class OutputCheck(unittest.TestCase):
    def test_perturbed_reference_is_flagged(self):
        bench, record = smoke_pass(traced=False)
        self.assertEqual(record["failed"], 0, record["problems"])
        out = bench.work / "out" / "0"
        refs = {h: check.point_record(out / h, r) for h, r in check.read_points(out).items()}
        _, problems = check.check_output(out, workloads.EPS, refs)
        self.assertEqual(problems, {})

        perturbations = {
            "c_fro": lambda ref: ref.update(c_fro=ref["c_fro"] * (1 + 1e-4)),
            "eigs": lambda ref: ref["eigs"].__setitem__(-1, ref["eigs"][-1] + 1e-4),
            "iterations": lambda ref: ref.update(iterations=ref["iterations"] + 2),
            "nmi": lambda ref: ref.update(nmi=ref["nmi"] - 1e-3),
        }
        for field, perturb in perturbations.items():
            with self.subTest(field=field):
                bad = copy.deepcopy(refs)
                for ref in bad.values():
                    perturb(ref)
                _, problems = check.check_output(out, workloads.EPS, bad)
                self.assertEqual(set(problems), set(refs))

    def test_unmet_eps_is_flagged(self):
        bench, _ = smoke_pass(traced=False)
        out = bench.work / "out" / "0"
        _, problems = check.check_output(out, 1e-300, None)
        self.assertTrue(problems)
        self.assertIn("final gaps above eps", next(iter(problems.values()))[0])


class Tracing(unittest.TestCase):
    def test_self_times_add_up_to_point_wall_time(self):
        _, record = smoke_pass(traced=True)
        self.assertEqual(record["failed"], 0, record["problems"])
        (rec,) = record["spans"]
        self.assertEqual(rec["missing"], [])
        spans, own = rec["spans"], tracer.self_times(rec["spans"])
        points = [i for i, span in enumerate(spans) if span[0] == "cli.point"]
        self.assertEqual(len(points), 1)
        for idx in points:
            wall = spans[idx][2] - spans[idx][1]
            total = sum(t for span, t in zip(spans, own) if span[4] == spans[idx][4])
            self.assertAlmostEqual(total, wall, delta=1e-9 * max(1.0, wall))
            self.assertTrue(all(t >= -1e-9 for t in own))

        metrics = run.layer_metrics(record, untraced_run_s=record["run_s"])
        for name in ("solver.other_s", "cli.artifacts_s", "solver.Ci_s", "spectral.kmeans_s"):
            self.assertGreater(metrics[name], 0.0, name)
        views = 2  # the smoke workload's view count
        self.assertEqual(metrics["solver.Ci.calls"], views * record["iterations"])
        self.assertEqual(metrics["solver.C.calls"], record["iterations"])

    def test_missing_layer_is_reported_not_fatal(self):
        _, record = smoke_pass(traced=True)
        for rec in record["spans"]:
            rec["installed"].remove("solver.Ci")
        metrics = run.layer_metrics(record, untraced_run_s=record["run_s"])
        self.assertIsNone(metrics["solver.Ci_s"])
        self.assertIsNone(metrics["solver.Ci.calls"])
        self.assertIsNotNone(metrics["solver.Zi_s"])

        t = tracer.Tracer()
        t.install(
            targets=(("gfclust.solver", "no_such_update", "solver.gone"),),
            solve_table=("gfclust.cli", "_NO_SUCH_TABLE", "solver.solve"),
        )
        self.assertEqual(t.missing, ["gfclust.solver.no_such_update", "gfclust.cli._NO_SUCH_TABLE"])
        self.assertEqual(t.installed, set())


class CommandLine(unittest.TestCase):
    def test_prints_every_end_to_end_metric_with_unit(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seconds", "0"],
            capture_output=True, text=True, timeout=170, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        for entry in run.benchmark_spec()["end_to_end"]:
            name, unit = entry["name"], entry["unit"]
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertIsInstance(result["metrics"][name]["value"], float)
            self.assertTrue(any(line.startswith(f"{name} = ") and f" {unit} (" in line for line in lines), name)

    def test_fails_without_program_sources(self):
        bare = run.WORK / "selftest_bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "smoke", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
