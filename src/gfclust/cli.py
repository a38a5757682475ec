"""Configuration-driven experiment runner.

A JSON config describes the dataset (manifest path or synthetic spec), the
solver settings, an optional parameter grid, the clustering repetition
protocol, and the output directory. For every grid point the runner performs
one deterministic solve, forms one spectral embedding of its consensus
matrix, rounds it by k-means once per repetition seed, and writes per-point
artifacts::

    <output_dir>/<grid_point_hash>/result.json     per-point parameters + metrics
    <output_dir>/<grid_point_hash>/trace.csv       per-iteration residuals and gaps
    <output_dir>/<grid_point_hash>/consensus.csv   converged consensus matrix
    <output_dir>/<grid_point_hash>/plot.svg        log-scale residual curves
    <output_dir>/summary.json                      best grid point per metric

Only the clustering stage is seed-sensitive; the solver itself is
deterministic, so repetitions vary the k-means seed alone.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .data import (
    AT_LEAST_ONE,
    COUNT,
    DatasetError,
    MultiViewDataset,
    NONNEGATIVE,
    NORMALIZATION_MODES,
    SyntheticSpec,
    check_field_types,
    generate_synthetic,
    json_object,
    load_dataset,
    normalize_views,
    read_json,
    read_matrix_csv,
    read_text,
    synthetic_peak_bytes,
    within,
    write_json,
    write_matrix_csv,
)
from .metrics import evaluate
from .solver import (
    SolverConfig,
    SolverNumericalError,
    SolverOutput,
    VARIANTS,
    solve,
    solve_peak_bytes,
)
from .spectral import build_affinity, spectral_clustering


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configuration."""


# Published per-corpus parameter presets (alpha, beta, eta).
PRESETS = {
    "3sources": (1.0, 0.8, 0.5),
    "ORL": (0.2, 0.1, 0.5),
    "MSRC-v1": (1e-5, 0.5, 0.5),
    "BBCsport": (0.2, 2.0, 0.5),
    "COIL20": (0.5, 0.1, 0.5),
    "Caltech101-7": (5.0, 10.0, 0.5),
    "HW": (0.8, 0.5, 0.5),
}

DEFAULT_ALPHA_BETA_GRID = [1e-5, 1e-4, 0.001, 0.01, 0.1, 0.2, 0.5, 0.8, 1.0, 2.0, 5.0, 8.0, 10.0]
DEFAULT_ETA_GRID = [-5.0, -2.0, -1.0, 0.1, 0.5, 1.5, 2.0, 5.0]
DEFAULT_GRID = {
    "alpha": DEFAULT_ALPHA_BETA_GRID,
    "beta": DEFAULT_ALPHA_BETA_GRID,
    "eta": DEFAULT_ETA_GRID,
}

# The top-level keys of an experiment config.
CONFIG_KEYS = (
    "dataset",
    "normalize",
    "preset",
    "solver",
    "grid",
    "k",
    "repetitions",
    "restarts",
    "seed",
    "variant",
    "output_dir",
)

# The keys of the config's dataset object; exactly one of them is given.
DATASET_KEYS = ("manifest", "synthetic")

METRIC_NAMES = ("acc", "nmi", "ari", "f_score")

# Every `run` flag but --config and --output, with its argparse type. A flag
# named after a SolverConfig field sets that field, the others a top-level
# config key of the same name.
RUN_FLAGS = {
    "alpha": float,
    "beta": float,
    "eta": float,
    "max_iter": int,
    "eps": float,
    "seed": int,
    "repetitions": int,
    "variant": str,
    "k": int,
    "normalize": str,
}


def _expand_default_grid(grid):
    """A whole-grid ``"default"`` as one ``"default"`` entry per grid key."""
    return dict.fromkeys(DEFAULT_GRID, "default") if grid == "default" else grid


def _grid_axis(key: str, values, solver: SolverConfig) -> list[float]:
    """The grid values of one solver field, each checked as that field of ``solver``."""
    if values == "default":
        values = DEFAULT_GRID[key]
    if not isinstance(values, list):
        raise ConfigError(f"grid {key} must be a list of numbers or 'default', got {values!r}")
    axis = []
    for value in values:
        try:
            value = getattr(replace(solver, **{key: value}), key)
        except ValueError as exc:
            raise ConfigError(f"invalid grid {key} value {value!r}: {exc}") from None
        if value in axis:
            raise ConfigError(f"grid {key} lists the value {value!r} more than once")
        axis.append(value)
    return axis


@dataclass(frozen=True)
class ExperimentConfig:
    manifest: Path | None
    synthetic: SyntheticSpec | None
    normalize: str = within(NORMALIZATION_MODES)
    solver: SolverConfig
    grid: dict[str, list[float]] | None
    k: int | None = within(AT_LEAST_ONE)
    repetitions: int = within(COUNT)
    restarts: int = within(COUNT)
    seed: int = within(NONNEGATIVE)
    variant: str = within(VARIANTS)
    output_dir: Path

    def __post_init__(self):
        check_field_types(self, ConfigError)

    @staticmethod
    def from_dict(raw: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        base_dir = Path(base_dir) if base_dir is not None else Path.cwd()
        raw = json_object(raw, "config", CONFIG_KEYS, ConfigError)
        dataset = json_object(raw.get("dataset"), "dataset", DATASET_KEYS, ConfigError)
        if ("manifest" in dataset) == ("synthetic" in dataset):
            raise ConfigError("dataset must specify exactly one of 'manifest' or 'synthetic'")
        manifest = synthetic = None
        if "manifest" in dataset:
            if not isinstance(dataset["manifest"], (str, os.PathLike)):
                raise ConfigError("dataset manifest must be a path string")
            manifest = base_dir / dataset["manifest"]  # an absolute path replaces base_dir
        else:
            spec = json_object(dataset["synthetic"], "synthetic spec", SyntheticSpec, ConfigError)
            try:
                synthetic = SyntheticSpec(**spec)
            except DatasetError as exc:
                raise ConfigError(f"invalid synthetic spec: {exc}") from None
        solver_fields = {**json_object(raw.get("solver", {}), "solver", SolverConfig, ConfigError)}
        preset = raw.get("preset")
        if preset is not None:
            if not isinstance(preset, str) or preset not in PRESETS:
                raise ConfigError(f"unknown preset {preset!r}; known: {sorted(PRESETS)}")
            for key, value in zip(DEFAULT_GRID, PRESETS[preset]):
                solver_fields.setdefault(key, value)
        try:
            solver = SolverConfig(**solver_fields)
        except ValueError as exc:
            raise ConfigError(f"invalid solver config: {exc}") from None
        grid = _expand_default_grid(raw.get("grid"))
        if grid is not None:
            grid = json_object(grid, "grid", DEFAULT_GRID, ConfigError)
            grid = {key: _grid_axis(key, values, solver) for key, values in grid.items()}
            if any(not values for values in grid.values()):
                raise ConfigError("grid lists must be non-empty")
        output_dir = raw.get("output_dir", "results")
        if not isinstance(output_dir, (str, os.PathLike)):
            raise ConfigError("output_dir must be a path string")
        output_dir = base_dir / output_dir
        return ExperimentConfig(
            manifest=manifest,
            synthetic=synthetic,
            normalize=raw.get("normalize", "none"),
            solver=solver,
            grid=grid,
            k=raw.get("k"),
            repetitions=raw.get("repetitions", 1),
            restarts=raw.get("restarts", 20),
            seed=raw.get("seed", 0),
            variant=raw.get("variant", "full"),
            output_dir=output_dir,
        )


def _read_config(path: Path):
    return read_json(path, ConfigError, "config file not found", "invalid config JSON")


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return ExperimentConfig.from_dict(_read_config(path), base_dir=path.parent)


def grid_points(cfg: ExperimentConfig) -> list[dict[str, float]]:
    """Cartesian product of the grid lists, singleton solver values elsewhere;
    SolverConfig holds each as a float, so 1 and 1.0 name the same point."""
    grid = cfg.grid or {}
    axes = [grid.get(key, [getattr(cfg.solver, key)]) for key in DEFAULT_GRID]
    return [dict(zip(DEFAULT_GRID, values)) for values in itertools.product(*axes)]


def grid_point_hash(params: dict[str, float]) -> str:
    canonical = json.dumps(params, sort_keys=True)
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:12]


def _load_experiment_dataset(cfg: ExperimentConfig) -> MultiViewDataset:
    if cfg.manifest is not None:
        ds = load_dataset(cfg.manifest)
    else:
        ds = generate_synthetic(cfg.synthetic)
    return normalize_views(ds, cfg.normalize)


def _write_trace_csv(path: Path, output: SolverOutput) -> None:
    """One row per iteration: ``iter``, then every scalar series of the
    diagnostics in field order (J holds one array per iteration)."""
    diag = output.diagnostics
    columns = [f.name for f in fields(diag) if f.name != "J"]
    table = np.column_stack([np.arange(1, len(diag) + 1), *(getattr(diag, c) for c in columns)])
    write_matrix_csv(path, table, header=",".join(["iter", *columns]))


def _metric_summary(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=float)
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std()),  # population std over repetitions
        "values": [float(x) for x in values],
    }


def _weight_regime(eta: float) -> str:
    """What the closed-form view weights do to sum_i gamma_i^eta J_i on the
    simplex: maximize it for 0 < eta < 1, where gamma^eta is concave, and
    minimize it for eta < 0 or eta > 1. At eta = 0 every gamma_i^eta is 1 and
    the weights do not enter the model."""
    if eta == 0.0:
        return "constant"
    return "maximizer" if 0.0 < eta < 1.0 else "minimizer"


def run_grid_point(
    ds: MultiViewDataset, cfg: ExperimentConfig, params: dict[str, float], point_dir: Path
) -> dict:
    """Solve one grid point, cluster and score it once per repetition seed
    (labeled datasets only), write the trace, consensus and plot artifacts
    into the existing point_dir; return the point's record."""
    solver_cfg = replace(cfg.solver, **params)
    output = solve(ds, solver_cfg, cfg.variant)
    _write_trace_csv(point_dir / "trace.csv", output)
    write_matrix_csv(point_dir / "consensus.csv", output.consensus_C)
    emit_convergence_plot(point_dir / "trace.csv", point_dir / "plot.svg")

    k = cfg.k if cfg.k is not None else ds.n_classes
    metrics = None
    if ds.labels is not None:
        # An unlabeled dataset is not clustered: nothing would score or keep its labels.
        seeds = range(cfg.seed, cfg.seed + cfg.repetitions)
        assignments = spectral_clustering(
            build_affinity(output.consensus_C), k, seeds, restarts=cfg.restarts
        )
        reports = [evaluate(a.labels, ds.labels) for a in assignments]
        metrics = {
            name: _metric_summary([getattr(report, name) for report in reports])
            for name in METRIC_NAMES
        }

    return {
        "params": params,
        "variant": cfg.variant,
        "normalize": cfg.normalize,
        "n": ds.n_samples,
        "v": ds.n_views,
        "k": k,
        "seed": cfg.seed,
        "repetitions": cfg.repetitions,
        "converged": output.converged,
        "iterations": output.iterations,
        "gamma": [float(g) for g in output.gamma],
        "weight_regime": _weight_regime(solver_cfg.eta),
        "metrics": metrics,
    }


def _check_memory(need: int, what: str) -> None:
    """Raise ConfigError if ``what``, estimated at ``need`` bytes, would need
    more than the machine's physical memory."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ConfigError(
            f"{what} needs about {need:,} bytes, more than the {have:,} bytes"
            " of physical memory"
        )


def _check_solve_memory(n_samples: int, view_dims) -> None:
    """Raise ConfigError if a solve at n_samples with views of view_dims
    features would need more than the machine's physical memory."""
    need = solve_peak_bytes(n_samples, len(view_dims), sum(view_dims))
    _check_memory(need, f"a solve at n={n_samples} with {len(view_dims)} views")


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run all grid points; returns the process exit code (0, or 2 if every
    grid point failed). Solver failures are recorded per point and the sweep
    continues."""
    spec = cfg.synthetic
    if spec is not None:
        # A spec too large to solve may be too large to generate, or take
        # long to: its shape is checked before anything is built.
        _check_solve_memory(spec.k * spec.n_per_cluster, spec.view_dims)
        _check_memory(synthetic_peak_bytes(spec), "generating the synthetic dataset")
    ds = _load_experiment_dataset(cfg)
    if cfg.k is None and ds.labels is None:
        raise ConfigError("k is required when the dataset has no labels")
    if cfg.k is not None and cfg.k > ds.n_samples:
        raise ConfigError(f"k={cfg.k} exceeds the {ds.n_samples} samples of the dataset")
    _check_solve_memory(ds.n_samples, [x.shape[1] for x in ds.views])
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {cfg.output_dir}: {exc.strerror}") from None
    points = []  # (hash, record) per grid point; a failed point's record has "error"
    for params in grid_points(cfg):
        digest = grid_point_hash(params)
        point_dir = cfg.output_dir / digest
        try:
            point_dir.mkdir(exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create grid point directory {point_dir}: {exc.strerror}"
            ) from None
        try:
            record = run_grid_point(ds, cfg, params, point_dir)
        except (SolverNumericalError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
            record = {"params": params, "variant": cfg.variant, "error": str(exc)}
        record["timestamp"] = datetime.now(timezone.utc).isoformat()
        write_json(point_dir / "result.json", record)
        points.append((digest, record))
    n_failed = sum("error" in record for _, record in points)
    scored = [(digest, record) for digest, record in points if record.get("metrics") is not None]
    best = None
    if scored:
        best = {}
        for metric in METRIC_NAMES:
            digest, top = max(scored, key=lambda p: p[1]["metrics"][metric]["mean"])
            best[metric] = {
                "hash": digest,
                "params": top["params"],
                "mean": top["metrics"][metric]["mean"],
            }
    summary = {
        "variant": cfg.variant,
        "n_points": len(points),
        "n_failed": n_failed,
        "points": [
            {"hash": digest, "params": record["params"], "ok": "error" not in record}
            for digest, record in points
        ],
        "best": best,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    write_json(cfg.output_dir / "summary.json", summary)
    if points and n_failed == len(points):
        return 2
    return 0


def emit_convergence_plot(trace_path: str | Path, out_path: str | Path) -> Path:
    """Render the residual columns of a trace CSV as a standalone SVG.

    Both residual curves are drawn against the iteration count on a log10
    vertical axis spanning the data range. A cell that is not a number, in
    any column, is a DatasetError naming the file, line and column.
    """
    trace_path = Path(trace_path)
    table = read_matrix_csv(trace_path, has_header=True)
    header = read_text(trace_path, DatasetError).splitlines()[0].split(",")
    if table.shape[1] != len(header):
        raise ValueError(
            f"ragged rows in {trace_path}: row 1 has {table.shape[1]} cells, header has {len(header)}"
        )
    columns = []
    for name in ("iter", "residual_C", "residual_Z"):
        if name not in header:
            raise ValueError(f"{trace_path} has no {name} column")
        columns.append(header.index(name))
    if not np.isfinite(table[:, columns]).all():
        raise ValueError(f"non-finite iteration or residual in {trace_path}")
    iters = table[:, columns[0]].tolist()
    res_c, res_z = (np.maximum(table[:, col], 1e-300).tolist() for col in columns[1:])

    width, height = 640.0, 420.0
    left, right, top, bottom = 72.0, 16.0, 16.0, 48.0
    x_lo, x_hi = min(iters), max(iters)
    y_lo = math.log10(min(res_c + res_z))
    y_hi = math.log10(max(res_c + res_z))
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return left + (x - x_lo) / x_span * (width - left - right)

    def sy(value: float) -> float:
        return height - bottom - (math.log10(value) - y_lo) / y_span * (height - top - bottom)

    def polyline(ys, color):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(iters, ys))
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
        polyline(res_c, "#1f77b4"),
        polyline(res_z, "#d62728"),
        f'<text x="{(left + width - right) / 2:.0f}" y="{height - 12:.0f}" '
        f'font-size="13" text-anchor="middle">iteration</text>',
        f'<text x="16" y="{(top + height - bottom) / 2:.0f}" font-size="13" '
        f'transform="rotate(-90 16 {(top + height - bottom) / 2:.0f})" '
        f'text-anchor="middle">log10 squared residual</text>',
        f'<text x="{left + 8:.0f}" y="{top + 14:.0f}" font-size="12" fill="#1f77b4">consensus C</text>',
        f'<text x="{left + 8:.0f}" y="{top + 30:.0f}" font-size="12" fill="#d62728">auxiliary Z</text>',
        f'<text x="{left - 6:.0f}" y="{height - bottom + 4:.0f}" font-size="11" '
        f'text-anchor="end">{y_lo:.1f}</text>',
        f'<text x="{left - 6:.0f}" y="{top + 10:.0f}" font-size="11" text-anchor="end">{y_hi:.1f}</text>',
        f'<text x="{sx(x_lo):.0f}" y="{height - bottom + 16:.0f}" font-size="11" '
        f'text-anchor="middle">{x_lo:.0f}</text>',
        f'<text x="{sx(x_hi):.0f}" y="{height - bottom + 16:.0f}" font-size="11" '
        f'text-anchor="middle">{x_hi:.0f}</text>',
        "</svg>",
    ]
    out_path = Path(out_path)
    out_path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return out_path


def _with_flags(raw, args: argparse.Namespace):
    """The raw config with every given flag written over its JSON value.

    Solver flags beat both the JSON ``solver`` values and a preset, and an
    explicit ``--alpha``, ``--beta`` or ``--eta`` drops that key from the
    grid. ``ExperimentConfig.from_dict`` checks the result, so a bad flag
    value fails exactly as the same value in the JSON does.
    """
    if not isinstance(raw, dict):
        return raw
    raw = dict(raw)
    given = {name: getattr(args, name) for name in RUN_FLAGS if getattr(args, name) is not None}
    solver_names = {f.name for f in fields(SolverConfig)}
    solver_flags = {name: value for name, value in given.items() if name in solver_names}
    raw.update({name: value for name, value in given.items() if name not in solver_names})
    solver = raw.get("solver", {})
    if isinstance(solver, dict):
        raw["solver"] = {**solver, **solver_flags}
    grid = _expand_default_grid(raw.get("grid"))
    if isinstance(grid, dict):
        raw["grid"] = {key: vals for key, vals in grid.items() if key not in solver_flags} or None
    if args.output is not None:
        raw["output_dir"] = str(Path(args.output).absolute())
    return raw


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfclust",
        description="Multi-view subspace clustering with an adaptive consensus graph filter",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment described by a JSON config")
    run_p.add_argument("--config", required=True, help="experiment config JSON")
    for name, type_ in RUN_FLAGS.items():
        run_p.add_argument("--" + name.replace("_", "-"), type=type_, dest=name)
    run_p.add_argument("--output", default=None, help="output directory override")

    plot_p = sub.add_parser("plot", help="render a residual trace CSV as SVG")
    plot_p.add_argument("trace", help="trace.csv produced by a run")
    plot_p.add_argument("--out", required=True, help="output SVG path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        try:
            path = Path(args.config)
            raw = _with_flags(_read_config(path), args)
            cfg = ExperimentConfig.from_dict(raw, base_dir=path.parent)
            code = run_experiment(cfg)
        except (ConfigError, DatasetError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        if code == 0:
            print(f"results written to {cfg.output_dir}")
        else:
            print("all grid points failed", file=sys.stderr)
        return code
    if args.command == "plot":
        try:
            out = emit_convergence_plot(args.trace, args.out)
        except (OSError, ValueError) as exc:
            print(f"plot error: {exc}", file=sys.stderr)
            return 1
        print(f"plot written to {out}")
        return 0
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
