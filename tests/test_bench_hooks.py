"""The names the benchmark's tracer wraps must exist in gfclust.

`perfbench/tracer.py` patches gfclust functions by module and attribute name
and reports a renamed one only as a `null` per-layer metric. This test reads
its target lists without importing the benchmark as a package or installing
any wrapper, and checks them against the current modules.
"""

import importlib
import inspect
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """Execute tracer.py's source in a fresh module; writes no bytecode cache."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_targets_resolve():
    tracer = load_tracer()
    solve_funcs = []
    for module_name, attr, span in tracer.TARGETS:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr} ({span})"
        if span == "solver.solve":
            solve_funcs.append(fn)
    assert solve_funcs
    for fn in solve_funcs:
        assert "callback" in inspect.signature(fn).parameters, fn.__name__
