"""The config contract, one field at a time.

Whatever value a single config or manifest field holds, `gfclust run` either
exits 1 with a `config error:` line, runs (0), or reports that every grid
point failed (2). It never raises or warns. Each field of a valid tiny config is
swapped for each value of a fixed pool; the whole sweep runs in process. Each
JSON object a run reads that is not an object, has an unknown key or lacks a
required key is a `config error:` line that names the object.
"""

import copy
import functools
import itertools
import json
import math
import operator
import re
import warnings
from dataclasses import fields

import pytest

from gfclust.cli import CONFIG_KEYS, ConfigError, ExperimentConfig, main
from gfclust.data import SyntheticSpec, generate_synthetic, write_dataset
from gfclust.solver import SolverConfig

TINY_SYNTHETIC = {"k": 2, "n_per_cluster": 4, "subspace_dim": 1, "view_dims": [3, 4]}
TINY_CONFIG = {
    "dataset": {"synthetic": TINY_SYNTHETIC},
    "solver": {"max_iter": 3},
    "output_dir": "out",
}

# JSON writes the infinities and NaN as Infinity and NaN, which json.loads
# reads back. 1 and 10**400 are integers where a float field is declared.
POOL = [
    None, True, False, 0, -1, 2**70, -(2**70), math.inf, -math.inf, math.nan,
    "", [], {}, [[1]], 1e-320, 1e308, 1, 10**400,
]

def run_config(case_dir, raw, capsys):
    """`gfclust run` on ``raw`` written into the new directory ``case_dir``:
    its exit code or the exception it raised, its stderr, and the messages
    of the warnings it issued."""
    case_dir.mkdir()
    path = case_dir / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(["run", "--config", str(path)])
        except Exception as exc:
            code = exc
    return code, capsys.readouterr().err, [str(w.message) for w in caught]


def breaches(tmp_path, capsys, variants):
    """The (value, outcome) of each ``(value, raw config)`` in ``variants``
    whose run breaks the contract or warns."""
    found = []
    for case, (value, raw) in enumerate(variants):
        code, err, warned = run_config(tmp_path / str(case), raw, capsys)
        exited = code in (0, 2) or (code == 1 and err.startswith("config error: "))
        if not exited or warned:
            found.append((value, code, err, warned))
    return found


def with_field(raw: dict, path: tuple, value) -> dict:
    """A deep copy of ``raw`` with the key (or list index) at ``path`` set to
    ``value``; the empty path stands for ``raw`` itself."""
    if not path:
        return copy.deepcopy(value)
    raw = copy.deepcopy(raw)
    node = raw
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return raw


FIELD_PATHS = (
    [("solver", f.name) for f in fields(SolverConfig)]
    + [("dataset", "synthetic", f.name) for f in fields(SyntheticSpec)]
    + [(key,) for key in CONFIG_KEYS]
)


@pytest.mark.parametrize("path", FIELD_PATHS, ids=".".join)
def test_every_config_value_runs_or_is_a_config_error(tmp_path, capsys, path):
    variants = [(value, with_field(TINY_CONFIG, path, value)) for value in POOL]
    assert breaches(tmp_path, capsys, variants) == []


@pytest.mark.parametrize(
    "path",
    [("views", 0, "path"), ("views", 0, "has_header"), ("labels",), ("name",)],
    ids=lambda path: ".".join(map(str, path)),
)
def test_every_manifest_value_runs_or_is_a_config_error(tmp_path, capsys, path):
    spec = SyntheticSpec(**TINY_SYNTHETIC)
    manifest = json.loads(write_dataset(generate_synthetic(spec), tmp_path / "data").read_text())
    variants = []
    for case, value in enumerate(POOL):
        manifest_path = tmp_path / "data" / f"manifest_{case}.json"
        manifest_path.write_text(json.dumps(with_field(manifest, path, value)), encoding="utf-8")
        config = {**TINY_CONFIG, "dataset": {"manifest": str(manifest_path)}}
        variants.append((value, config))
    assert breaches(tmp_path, capsys, variants) == []


# Each JSON object a run reads: the name its messages give it, the keys that
# lead to it in OBJECT_CONFIG or in a manifest, and the message for each of
# its required keys that is left out (TINY_SYNTHETIC holds just the required
# keys of a synthetic spec).
OBJECT_CONFIG = {**TINY_CONFIG, "grid": {"alpha": [0.5]}}
CONFIG_OBJECTS = [
    ("config", (), {}),
    ("dataset", ("dataset",), {}),
    (
        "synthetic spec",
        ("dataset", "synthetic"),
        {key: f"missing synthetic spec keys ['{key}']" for key in TINY_SYNTHETIC},
    ),
    ("solver", ("solver",), {}),
    ("grid", ("grid",), {}),
]
MANIFEST_OBJECTS = [
    ("manifest", (), {}),
    ("manifest view 0", ("views", 0), {"path": "manifest view 0 needs a 'path' string"}),
]


def object_mutations(raw: dict, what: str, path: tuple, required: dict) -> list:
    """(value, mutated ``raw``, message) for the JSON object ``what`` at
    ``path`` in ``raw``: each POOL value that is not an object in its place
    (but null for the grid, which means no grid), an extra key "zz", and each
    ``required`` key left out, with the start of the message each must give."""
    node = functools.reduce(operator.getitem, path, raw)
    cases = [
        (value, with_field(raw, path, value), f"{what} must be a JSON object")
        for value in POOL
        if not isinstance(value, dict) and not (what == "grid" and value is None)
    ]
    extra = with_field(raw, path, {**node, "zz": 1})
    cases.append(("zz", extra, f"unknown {what} keys ['zz']; known: "))
    for key, message in required.items():
        cases.append((key, with_field(raw, path, {k: node[k] for k in node if k != key}), message))
    return cases


def misreported(tmp_path, capsys, cases):
    """The (value, outcome) of each ``(value, raw config, message)`` in
    ``cases`` whose run does not exit 1 with one line `config error:
    <message>...`, shows the text of a Python call error, or warns."""
    found = []
    for case, (value, raw, message) in enumerate(cases):
        code, err, warned = run_config(tmp_path / str(case), raw, capsys)
        one_line = err.startswith(f"config error: {message}") and err.count("\n") == 1
        internal = re.search(r"__init__\(\)|argument after \*\*|positional argument", err)
        if code != 1 or not one_line or internal or warned:
            found.append((value, code, err, warned))
    return found


@pytest.mark.parametrize("what, path, required", CONFIG_OBJECTS, ids=[c[0] for c in CONFIG_OBJECTS])
def test_every_malformed_config_object_is_a_config_error_naming_it(
    tmp_path, capsys, what, path, required
):
    cases = object_mutations(OBJECT_CONFIG, what, path, required)
    assert misreported(tmp_path, capsys, cases) == []


@pytest.mark.parametrize(
    "what, path, required", MANIFEST_OBJECTS, ids=[c[0] for c in MANIFEST_OBJECTS]
)
def test_every_malformed_manifest_object_is_a_config_error_naming_it(
    tmp_path, capsys, what, path, required
):
    spec = SyntheticSpec(**TINY_SYNTHETIC)
    manifest = json.loads(write_dataset(generate_synthetic(spec), tmp_path / "data").read_text())
    cases = []
    for case, (value, mutated, message) in enumerate(
        object_mutations(manifest, what, path, required)
    ):
        manifest_path = tmp_path / "data" / f"manifest_{case}.json"
        manifest_path.write_text(json.dumps(mutated), encoding="utf-8")
        config = {**TINY_CONFIG, "dataset": {"manifest": str(manifest_path)}}
        cases.append((value, config, message))
    assert misreported(tmp_path, capsys, cases) == []


ARTIFACTS = ("trace.csv", "consensus.csv", "plot.svg")


def point_artifacts(output_dir):
    (point,) = [p for p in output_dir.iterdir() if p.is_dir()]
    return {name: (point / name).read_bytes() for name in ARTIFACTS}


@pytest.mark.parametrize(
    "integers, floats",
    [
        ({"mu0": 1}, {"mu0": 1.0}),
        (
            {"rho": 10, "mu_max": 1000, "max_iter": 20},
            {"rho": 10.0, "mu_max": 1000.0, "max_iter": 20},
        ),
    ],
)
def test_integer_in_a_float_field_runs_as_that_float(tmp_path, capsys, integers, floats):
    # An integer mu0, or an integer mu_max that the penalty reaches, once
    # made the solver's penalty matrices int64 and crashed the run.
    outputs = []
    for name, solver in (("int", integers), ("float", floats)):
        raw = {**TINY_CONFIG, "solver": {**TINY_CONFIG["solver"], **solver}}
        code, _, warned = run_config(tmp_path / name, raw, capsys)
        assert (code, warned) == (0, [])
        outputs.append(point_artifacts(tmp_path / name / "out"))
    assert outputs[0] == outputs[1]


def test_integer_beyond_int64_in_a_float_field_runs(tmp_path, capsys):
    # 2**70 once reached np.sqrt as a Python int, which numpy holds as an object.
    raw = with_field(TINY_CONFIG, ("solver", "mu0"), 2**70)
    code, _, warned = run_config(tmp_path / "case", raw, capsys)
    assert (code, warned) == (0, [])


@pytest.mark.parametrize(
    "path",
    [("solver", "alpha"), ("grid", "alpha"), ("dataset", "synthetic", "noise_sigma")],
    ids=".".join,
)
def test_integer_beyond_the_double_range_is_a_config_error(tmp_path, capsys, path):
    value = [10**400] if path == ("grid", "alpha") else 10**400
    raw = with_field({**TINY_CONFIG, "grid": {}}, path, value)
    code, err, _ = run_config(tmp_path / "case", raw, capsys)
    assert code == 1
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "must be a finite number" in err


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("solver", "alpha"), 0, "alpha must be in (0, 1e6], got 0.0"),
        (("solver", "eta"), -21, "eta must be >= -20, got -21.0"),
        (("solver", "mu0"), -1e-6, "mu0 must be > 0, got -1e-06"),
        (("solver", "rho"), 0.5, "rho must be >= 1, got 0.5"),
        (("solver", "max_iter"), 0, "max_iter must be in [1, 1e4], got 0"),
        (("dataset", "synthetic", "k"), 1, "k must be >= 2, got 1"),
        (("dataset", "synthetic", "noise_sigma"), -0.1, "noise_sigma must be in [0, 1], got -0.1"),
        (("k",), 0, "k must be >= 1, got 0"),
        (("seed",), -1, "seed must be >= 0, got -1"),
    ],
    ids=lambda case: ".".join(case) if isinstance(case, tuple) else None,
)
def test_value_outside_its_range_is_named_with_the_range(path, value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig.from_dict(with_field(TINY_CONFIG, path, value))


def test_closed_range_ends_are_accepted():
    ends = {"alpha": 1e6, "eta": -20, "rho": 1, "max_iter": 10_000, "mu0": 5.0, "mu_max": 5.0}
    raw = {**TINY_CONFIG, "solver": ends, "k": 1, "seed": 0, "repetitions": 1, "restarts": 10_000}
    raw["dataset"] = {"synthetic": {**TINY_SYNTHETIC, "k": 2, "noise_sigma": 1, "seed": 0}}
    cfg = ExperimentConfig.from_dict(raw)
    assert (cfg.solver.alpha, cfg.solver.eta, cfg.synthetic.noise_sigma) == (1e6, -20.0, 1.0)


# Each bound that keeps the model's weights and the synthetic noise from
# overflowing, with the next value beyond it. Beyond these, alpha = 1e308,
# eta = -2**70 and noise_sigma = 1e308 warned of overflow mid-run.
OVERFLOW_BOUNDS = [
    (("solver", "alpha"), 1e6, 1.1e6),
    (("solver", "beta"), 1e6, 1.1e6),
    (("solver", "eta"), -20, -20.5),
    (("dataset", "synthetic", "noise_sigma"), 1.0, 1.1),
]


@pytest.mark.parametrize(
    "path, bound, beyond", OVERFLOW_BOUNDS, ids=[".".join(p) for p, _, _ in OVERFLOW_BOUNDS]
)
def test_each_overflow_bound_runs_and_beyond_it_is_a_config_error(
    tmp_path, capsys, path, bound, beyond
):
    code, _, warned = run_config(tmp_path / "bound", with_field(TINY_CONFIG, path, bound), capsys)
    assert (code, warned) == (0, [])
    code, err, _ = run_config(tmp_path / "beyond", with_field(TINY_CONFIG, path, beyond), capsys)
    assert code == 1
    assert err.startswith("config error: ") and f"{path[-1]} must be " in err


# Cell values of a malformed trace: blanks, the non-finite spellings float()
# reads, a value beyond the double range, signs and zero, text, and a comma
# that splits the cell in two.
TRACE_POOL = ["", " ", "nan", "inf", "-inf", "1e400", "-1", "0", "abc", "1,2"]


def test_every_trace_cell_plots_or_is_a_plot_error(tmp_path, capsys):
    # `gfclust plot` on a trace.csv with one cell (header cells included)
    # swapped for a pool value either writes an SVG of finite coordinates (0)
    # or exits 1 with one `plot error:` line; it never raises or warns.
    assert run_config(tmp_path / "run", TINY_CONFIG, capsys)[0] == 0
    (trace,) = (tmp_path / "run" / "out").glob("*/trace.csv")
    rows = [line.split(",") for line in trace.read_text(encoding="utf-8").splitlines()]
    swapped, svg = tmp_path / "trace.csv", tmp_path / "plot.svg"
    found = []
    for row, col in itertools.product(range(len(rows)), range(len(rows[0]))):
        for value in TRACE_POOL:
            cells = [list(r) for r in rows]
            cells[row][col] = value
            swapped.write_text("\n".join(map(",".join, cells)) + "\n", encoding="utf-8")
            svg.unlink(missing_ok=True)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = main(["plot", str(swapped), "--out", str(svg)])
                except Exception as exc:
                    code = exc
            err = capsys.readouterr().err
            plotted = code == 0 and not re.search("nan|inf", svg.read_text(encoding="utf-8"))
            refused = code == 1 and err.startswith("plot error: ") and err.count("\n") == 1
            if not (plotted or refused) or caught:
                found.append((row, col, value, code, err, [str(w.message) for w in caught]))
    assert found == []
