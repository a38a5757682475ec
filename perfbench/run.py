"""gfclust benchmark: times the real `gfclust run` CLI from the outside.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-reference

Run from anywhere; paths are resolved from this file. Each workload writes
its config (and manifest) files from the seed under `.bench_work/<workload>`
and runs `python -m gfclust.cli run --config ...` with `PYTHONPATH=src` in a
fresh child process, one child at a time, BLAS pinned to one thread.

--trace 0 measures the end-to-end metrics of BENCHMARK.json: set-up probes
and a whole workload pass, repeated while `--seconds` lasts (at least three
passes). --trace 1 runs
one untraced and one traced pass (see tracer.py) and reports the per-layer
metrics. Every pass is checked (check.py); on the default seed 7 against
reference.json as well. The last stdout line is the JSON result; the full
record, environment included, goes to `.bench_work/records/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import check
import envinfo
import workloads
from tracer import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RECORDS = WORK / "records"
REFERENCE = HERE / "reference.json"

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES_PER_PASS = 2
MIN_PASSES = 3
# A run must end within 180 s: no pass starts that would be expected to end
# after DEADLINE_S, and children still running then are killed.
DEADLINE_S = 170.0

SOLVER_PHASES = ("Y", "Ci", "Zi", "C", "Z", "gaps", "multipliers", "weights", "mismatch", "objective")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.start = perf_counter()
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.configs = workloads.prepare(workload, seed, self.work)
        self.grid_sizes = [self._grid_size(p) for p in self.configs]
        self.refs = None
        if seed == workloads.DEFAULT_SEED and REFERENCE.is_file():
            self.refs = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
        self.log = (self.work / "children.log").open("w", encoding="utf-8")

    @staticmethod
    def _grid_size(config: Path) -> int:
        grid = json.loads(config.read_text(encoding="utf-8")).get("grid") or {}
        return math.prod(len(values) for values in grid.values())

    def close(self) -> None:
        self.log.close()

    def run_child(self, args: list[str]) -> tuple[float, float, float, int]:
        """Run one child to completion; return (wall s, CPU s, peak RSS MB, exit code)."""
        self.log.flush()
        t0 = perf_counter()
        proc = subprocess.Popen(args, cwd=self.work, env=self.env, stdout=self.log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, self.start + DEADLINE_S - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode

    def setup_time(self) -> float:
        wall, _, _, code = self.run_child([sys.executable, str(HERE / "probe_setup.py"), str(self.configs[0])])
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}; see {self.log.name}")
        return wall

    def run_pass(self, traced: bool) -> dict:
        """Run every CLI invocation of the workload once and check the outputs."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        record = {"run_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "attempted": 0, "failed": 0,
                  "nmi": [], "iterations": 0, "problems": {}, "spans": []}
        for idx, config in enumerate(self.configs):
            if traced:
                spans = self.work / f"spans_{idx}.json"
                args = [sys.executable, str(HERE / "tracer.py"), str(spans), "run", "--config", str(config)]
            else:
                args = [sys.executable, "-m", "gfclust.cli", "run", "--config", str(config)]
            wall, cpu, rss, code = self.run_child(args)
            record["run_s"] += wall
            record["cpu_s"] += cpu
            record["peak_rss_mb"] = max(record["peak_rss_mb"], rss)
            record["attempted"] += self.grid_sizes[idx]
            refs = None if self.refs is None else self.refs[idx]
            try:
                results, problems = check.check_output(out / str(idx), workloads.EPS, refs)
            except (OSError, ValueError, KeyError) as exc:
                results, problems = {}, {"*": [f"unreadable output: {exc!r}"]}
            if code != 0:
                problems.setdefault("*", []).append(f"exit code {code}")
            if traced:
                try:
                    record["spans"].append(json.loads(spans.read_text(encoding="utf-8")))
                    record["untraced_names"] = record["spans"][-1]["missing"]
                except (OSError, ValueError):
                    problems.setdefault("*", []).append("traced child wrote no spans")
            failed = self.grid_sizes[idx] if "*" in problems else len(problems)
            record["failed"] += min(failed, self.grid_sizes[idx])
            for point, found in problems.items():
                record["problems"][f"{idx}/{point}"] = found
            ok = [r for r in results.values() if "error" not in r]
            record["nmi"] += [r["metrics"]["nmi"]["mean"] for r in ok if r.get("metrics")]
            record["iterations"] += sum(r["iterations"] for r in ok)
        record["bytes_written"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        record["nmi_mean"] = statistics.fmean(record["nmi"]) if record["nmi"] else None
        print(f"[{self.workload}] {'traced ' if traced else ''}pass {record['run_s']:.3f} s "
              f"(CPU {record['cpu_s']:.3f} s), "
              f"{record['failed']}/{record['attempted']} failed", file=sys.stderr)
        return record

    def measure(self) -> tuple[dict, dict]:
        """End-to-end run: set-up probes and a pass, repeated while the time lasts.

        At least MIN_PASSES passes, so that the median ignores one slow pass.
        Probes run before every pass, so their median covers the same stretch
        of time as the passes.
        """
        setup, passes, rounds = [], [], []
        t0 = perf_counter()
        while True:
            r0 = perf_counter()
            setup += [self.setup_time() for _ in range(SETUP_PROBES_PER_PASS)]
            passes.append(self.run_pass(traced=False))
            rounds.append(perf_counter() - r0)
            typical = statistics.median(rounds)
            if perf_counter() - self.start + typical > DEADLINE_S:
                break
            if len(passes) >= MIN_PASSES and perf_counter() - t0 + typical > self.seconds:
                break
        samples = {
            "run_s": [p["run_s"] for p in passes],
            "setup_s": setup,
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
            "nmi_mean": [p["nmi_mean"] for p in passes if p["nmi_mean"] is not None] or [None],
        }
        return samples, {"passes": passes}

    def trace(self) -> tuple[dict, dict]:
        """Per-layer run: one untraced pass for the overhead base, one traced pass."""
        plain = self.run_pass(traced=False)
        traced = self.run_pass(traced=True)
        metrics = layer_metrics(traced, plain["run_s"])
        samples = {name: [value] for name, value in metrics.items()}
        return samples, {"passes": [plain, traced]}


def layer_metrics(traced: dict, untraced_run_s: float) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass; None where the layer was not traced."""
    installed = set.intersection(*(set(rec["installed"]) for rec in traced["spans"])) if traced["spans"] else set()
    own_s: dict[str, float] = {}
    wall_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    point_s: list[float] = []
    iter_ms: list[float] = []
    for rec in traced["spans"]:
        iter_ms += rec["iter_ms"]
        for span, own in zip(rec["spans"], self_times(rec["spans"])):
            name, duration = span[0], span[2] - span[1]
            own_s[name] = own_s.get(name, 0.0) + own
            wall_s[name] = wall_s.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            if name == "cli.point":
                point_s.append(duration)

    def traced_only(table: dict, span: str):
        return table.get(span, 0) if span in installed else None

    def self_s(span: str):
        return traced_only(own_s, span)

    def count(span: str):
        return traced_only(calls, span)

    metrics = {
        "solver.solve_s": traced_only(wall_s, "solver.solve"),
        "solver.iterations": traced["iterations"],
        "solver.iter_ms_p50": statistics.median(iter_ms) if len(iter_ms) >= 2 else None,
        "solver.iter_ms_p90": statistics.quantiles(iter_ms, n=10)[8] if len(iter_ms) >= 2 else None,
        "solver.other_s": self_s("solver.solve"),
    }
    for phase in SOLVER_PHASES:
        metrics[f"solver.{phase}_s"] = self_s(f"solver.{phase}")
        metrics[f"solver.{phase}.calls"] = count(f"solver.{phase}")
    metrics.update({
        "spectral.affinity_s": self_s("spectral.affinity"),
        "spectral.embed_s": self_s("spectral.embed"),
        "spectral.kmeans_s": self_s("spectral.kmeans"),
        "spectral.calls": count("spectral.embed"),
        "metrics.evaluate_s": self_s("metrics.evaluate"),
        "metrics.calls": count("metrics.evaluate"),
        "cli.point_s_p50": statistics.median(point_s) if point_s else None,
        "cli.artifacts_s": self_s("cli.point"),
        "cli.plot_s": self_s("cli.plot"),
        "cli.trace_csv_s": self_s("cli.trace_csv"),
        "cli.bytes_written": traced["bytes_written"],
        "cli.points": traced["attempted"],
        "cli.failed_points": traced["failed"],
        "data.generate_s": self_s("data.generate"),
        "data.load_s": self_s("data.load"),
        "data.normalize_s": self_s("data.normalize"),
        "trace.run_s": traced["run_s"],
        "trace.overhead_s": traced["run_s"] - untraced_run_s,
    })
    return metrics


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    bench = Bench(workload, seed, seconds)
    try:
        samples, detail = bench.trace() if trace else bench.measure()
    finally:
        bench.close()
    passes = detail["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {}
    for entry in wanted:
        values = samples.get(entry["name"])
        if values is None or values[0] is None:
            print(f"metric {entry['name']}: missing (layer not traced)", file=sys.stderr)
            metrics[entry["name"]] = {"value": None, "unit": entry["unit"]}
            continue
        q1, med, q3 = _quartiles(values)
        print(f"{entry['name']} = {med:.6g} {entry['unit']} "
              f"(median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})")
        metrics[entry["name"]] = {"value": med, "unit": entry["unit"]}
    for p in passes:
        p.pop("spans", None)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "reference_checked": bench.refs is not None,
        "environment": envinfo.environment(ROOT, THREAD_ENV),
        "samples": samples,
        "passes": passes,
    }
    RECORDS.mkdir(parents=True, exist_ok=True)
    (RECORDS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for p in passes:
        for name in p.get("untraced_names", []):
            print(f"tracer: {name} not found, not traced", file=sys.stderr)
        for where, found in p["problems"].items():
            print(f"check failed {where}: {'; '.join(found)}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def record_reference() -> None:
    """Record each workload's outputs on the default seed into reference.json."""
    reference = {}
    for name in ("ablation_n90", "solve_n300", "hw6_manifest"):
        bench = Bench(name, workloads.DEFAULT_SEED, 0.0)
        try:
            bench.refs = None
            bench.run_pass(traced=False)
        finally:
            bench.close()
        reference[name] = []
        for idx in range(len(bench.configs)):
            out = bench.work / "out" / str(idx)
            reference[name].append({
                h: check.point_record(out / h, result) for h, result in check.read_points(out).items()
            })
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"reference written to {REFERENCE}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "gfclust" / "cli.py").is_file():
        print(f"gfclust sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    seconds = benchmark_spec()["run_seconds"] if args.seconds is None else args.seconds
    result = run(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
