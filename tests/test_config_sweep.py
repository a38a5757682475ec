"""The config contract, one field at a time.

Whatever value a single config or manifest field holds, `gfclust run` either
exits 1 with a `config error:` line, runs (0), or reports that every grid
point failed (2). It never raises. Each field of a valid tiny config is
swapped for each value of a fixed pool; the whole sweep runs in process.
"""

import copy
import json
import math
import warnings
from dataclasses import fields

import pytest

from gfclust.cli import CONFIG_KEYS, main
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

# The cases whose run warns of floating-point overflow before it ends as the
# contract allows. alpha 1e308 and eta -2**70 fail their grid point (exit 2),
# beta 1e308 runs to exit 0 past an infinite shift in the C update, and
# noise_sigma 1e308 generates infinite data, a config error. ROADMAP item 5
# records them; any other case that warns breaks the contract.
OVERFLOWS = [
    ("solver.alpha", 1e308),
    ("solver.beta", 1e308),
    ("solver.eta", -(2**70)),
    ("dataset.synthetic.noise_sigma", 1e308),
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


def breaches(tmp_path, capsys, name, variants):
    """The (value, outcome) of each ``(value, raw config)`` in ``variants``,
    a sweep of the field ``name``, whose run breaks the contract."""
    found = []
    for case, (value, raw) in enumerate(variants):
        code, err, warned = run_config(tmp_path / str(case), raw, capsys)
        exited = code in (0, 2) or (code == 1 and err.startswith("config error: "))
        if not exited or (warned and (name, value) not in OVERFLOWS):
            found.append((value, code, err, warned))
    return found


def with_field(raw: dict, path: tuple, value) -> dict:
    """A deep copy of ``raw`` with the key (or list index) at ``path`` set to ``value``."""
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
    assert breaches(tmp_path, capsys, ".".join(path), variants) == []


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
    assert breaches(tmp_path, capsys, ".".join(map(str, path)), variants) == []


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
