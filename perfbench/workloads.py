"""Benchmark workloads: each one is a list of `gfclust run` config files
generated from the workload seed.

The program only ever sees the generated config (and, for `hw6_manifest`,
manifest and CSV) files; the seed feeds the synthetic specs and the
benchmark's own manifest generator.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

DEFAULT_SEED = 7  # the README seed; the reference outputs are recorded for it
EPS = 1e-4  # convergence tolerance written into every config and checked

ABLATION_VARIANTS = ("full", "no_smoothing", "frobenius")
HW_VIEW_DIMS = (76, 216, 64, 240, 47, 6)  # UCI Handwritten feature dims


def _synthetic(seed: int, n_per_cluster: int, sigma: float) -> dict:
    return {
        "synthetic": {
            "k": 3,
            "n_per_cluster": n_per_cluster,
            "subspace_dim": 3,
            "view_dims": [20, 30],
            "noise_sigma": sigma,
            "seed": seed,
        }
    }


def _ablation_n90(seed: int) -> list[dict]:
    return [
        {
            "dataset": _synthetic(seed, 30, 0.1),
            "solver": {"beta": 0.5, "eps": EPS},
            "grid": {"alpha": [0.1, 1.0], "eta": [0.5, 2.0]},
            "repetitions": 10,
            "seed": 0,
            "variant": variant,
        }
        for variant in ABLATION_VARIANTS
    ]


def _solve_n300(seed: int) -> list[dict]:
    return [
        {
            "dataset": _synthetic(seed, 100, 0.01),
            "solver": {"alpha": 0.5, "beta": 0.5, "eta": 0.5, "eps": EPS},
            "repetitions": 1,
            "seed": 0,
            "variant": "full",
        }
    ]


def _hw6_manifest(seed: int) -> list[dict]:
    return [
        {
            "dataset": {"manifest": "hw6/manifest.json"},
            "normalize": "unit_row_norm",
            "preset": "HW",
            "solver": {"eps": EPS},
            "repetitions": 5,
            "seed": 0,
            "variant": "full",
        }
    ]


def _smoke(seed: int) -> list[dict]:
    """A few-second single point for the self-tests; not in BENCHMARK.json."""
    return [
        {
            "dataset": _synthetic(seed, 8, 0.01),
            "solver": {"alpha": 0.5, "beta": 0.5, "eta": 0.5, "eps": EPS},
            "repetitions": 2,
            "seed": 0,
            "variant": "full",
        }
    ]


WORKLOADS = {
    "ablation_n90": _ablation_n90,
    "solve_n300": _solve_n300,
    "hw6_manifest": _hw6_manifest,
    "smoke": _smoke,
}


def write_hw6_manifest(seed: int, out_dir: Path, k: int = 10, n_per_cluster: int = 20) -> Path:
    """Union-of-subspaces data with six views of the UCI Handwritten dims.

    Cluster j of each view lies near a random 3-dimensional subspace; samples
    are uniform [-1, 1] mixtures of its basis plus Gaussian noise (sigma 0.1).
    Written with 17 significant digits, one CSV per view plus labels. The
    benchmark generates this itself, not through gfclust, so that the inputs
    stay the same when the program changes.
    """
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for idx, dim in enumerate(HW_VIEW_DIMS):
        blocks = []
        for _ in range(k):
            basis, _ = np.linalg.qr(rng.standard_normal((dim, 3)))
            coeffs = rng.uniform(-1.0, 1.0, size=(n_per_cluster, 3))
            blocks.append(coeffs @ basis.T + 0.1 * rng.standard_normal((n_per_cluster, dim)))
        name = f"view_{idx}.csv"
        np.savetxt(out_dir / name, np.vstack(blocks), fmt="%.17g", delimiter=",")
        entries.append({"path": name, "has_header": False})
    np.savetxt(out_dir / "labels.csv", np.repeat(np.arange(k), n_per_cluster), fmt="%d")
    manifest = {"views": entries, "labels": "labels.csv", "name": "hw6"}
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def prepare(workload: str, seed: int, work_dir: Path) -> list[Path]:
    """Write the workload's inputs under work_dir; return its config paths in run order.

    Each config's output_dir is `out/<index>` relative to work_dir, so a
    repetition can clear `work_dir/out` and start clean.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    configs = WORKLOADS[workload](seed)
    if workload == "hw6_manifest":
        write_hw6_manifest(seed, work_dir / "hw6")
    paths = []
    for idx, cfg in enumerate(configs):
        cfg = dict(cfg, output_dir=f"out/{idx}")
        path = work_dir / f"config_{idx}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
