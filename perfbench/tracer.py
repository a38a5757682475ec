"""Outside-in tracing of one `gfclust run` invocation.

Run as a child process in place of `python -m gfclust.cli`:

    python tracer.py SPANS_JSON run --config CONFIG

It wraps the public functions of each gfclust module at the names their
callers resolve, runs `gfclust.cli.main`, and writes the spans it kept in
memory to SPANS_JSON. A span is `[name, start, end, parent, point]`: `parent`
indexes the enclosing span (-1 at the top) and `point` counts grid points
(-1 outside one). A target that no longer exists is listed under `missing`
and the run goes on without it.

The parent process turns spans into per-layer self times with `self_times`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

# (module, attribute, span name). Each entry binds where its caller looks the
# name up: the CLI imported data/spectral/metrics names into its own
# namespace, while `_solve` and `spectral_clustering` resolve the update
# functions and `kmeans` in their own modules.
TARGETS = (
    ("gfclust.cli", "generate_synthetic", "data.generate"),
    ("gfclust.cli", "load_dataset", "data.load"),
    ("gfclust.cli", "normalize_views", "data.normalize"),
    ("gfclust.cli", "run_grid_point", "cli.point"),
    ("gfclust.cli", "_write_trace_csv", "cli.trace_csv"),
    ("gfclust.cli", "emit_convergence_plot", "cli.plot"),
    ("gfclust.cli", "solve", "solver.solve"),
    ("gfclust.solver", "update_view_representation", "solver.Y"),
    ("gfclust.solver", "update_view_coefficients", "solver.Ci"),
    ("gfclust.solver", "update_view_auxiliary", "solver.Zi"),
    ("gfclust.solver", "update_consensus_coefficients", "solver.C"),
    ("gfclust.solver", "update_consensus_auxiliary", "solver.Z"),
    ("gfclust.solver", "constraint_gaps", "solver.gaps"),
    ("gfclust.solver", "update_multipliers", "solver.multipliers"),
    ("gfclust.solver", "update_view_weights", "solver.weights"),
    ("gfclust.solver", "view_mismatches", "solver.mismatch"),
    ("gfclust.solver", "objective_value", "solver.objective"),
    ("gfclust.cli", "build_affinity", "spectral.affinity"),
    ("gfclust.cli", "spectral_clustering", "spectral.embed"),
    ("gfclust.spectral", "kmeans", "spectral.kmeans"),
    ("gfclust.cli", "evaluate", "metrics.evaluate"),
)
# The CLI captured the solve functions per variant at import time, so the
# dict entries need their own wrappers; `gfclust.cli.solve` covers a CLI that
# calls a single solve entry point instead.
SOLVE_TABLE = ("gfclust.cli", "_SOLVE_FUNCS", "solver.solve")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.points = 0
        self.iter_ms: list[float] = []
        self.installed: set[str] = set()
        self.missing: list[str] = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if name == "cli.point":
                point = self.points
                self.points += 1
            else:
                point = spans[parent][4] if parent >= 0 else -1
            idx = len(spans)
            span = [name, perf_counter(), 0.0, parent, point]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def wrap_solve(self, fn):
        """Span the solve and time its iterations through the solve callback."""
        if "callback" not in inspect.signature(fn).parameters:
            self.missing.append("solve callback")
            return self.wrap(fn, "solver.solve")
        iter_ms = self.iter_ms

        def timed(ds, cfg, *args, callback=None, **kwargs):
            last = [perf_counter()]

            def on_iteration(state):
                now = perf_counter()
                iter_ms.append(1e3 * (now - last[0]))
                last[0] = now
                if callback is not None:
                    callback(state)

            return fn(ds, cfg, *args, callback=on_iteration, **kwargs)

        return self.wrap(functools.wraps(fn)(timed), "solver.solve")

    def install(self, targets=TARGETS, solve_table=SOLVE_TABLE) -> None:
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap_solve(fn) if name == "solver.solve" else self.wrap(fn, name)
            setattr(module, attr, wrapped)
            self.installed.add(name)
        module_name, attr, name = solve_table
        table = getattr(importlib.import_module(module_name), attr, None)
        if isinstance(table, dict):
            for key, fn in list(table.items()):
                table[key] = self.wrap_solve(fn)
            self.installed.add(name)
        else:
            self.missing.append(f"{module_name}.{attr}")

    def record(self) -> dict:
        return {
            "spans": self.spans,
            "iter_ms": self.iter_ms,
            "installed": sorted(self.installed),
            "missing": self.missing,
        }


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest, so children never overlap and the
    self times of all spans under a root add up to the root's duration.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def main(argv: list[str]) -> int:
    out_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    from gfclust import cli

    code = cli.main(cli_args)
    out_path.write_text(json.dumps(tracer.record()), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
