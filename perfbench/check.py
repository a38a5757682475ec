"""Output check for one `gfclust run` output directory.

Every grid point must have converged with every constraint gap of its last
trace row at most the config's eps. On the default seed each point must also
match the reference recorded in reference.json: iteration count, NMI, and a
consensus fingerprint (||C||_F plus the 2k smallest eigenvalues of the
normalized Laplacian of the affinity (|C| + |C^T|)/2). NMI is compared raw,
never clamped.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# Tolerances against the reference. A faster solver path that reorders
# floating-point work may move C by ~1e-8 (n=300) and the stopping test by
# one iteration; anything larger is a changed result.
ITER_TOL = 1
NMI_ATOL = 1e-6
FRO_RTOL = 1e-6
EIG_ATOL = 1e-6


def fingerprint(C: np.ndarray, k: int) -> dict:
    """||C||_F and the 2k smallest eigenvalues of I - D^-1/2 W D^-1/2.

    Computed here rather than with gfclust's own functions, so that a change
    to the program under test cannot change how it is checked.
    """
    W = 0.5 * (np.abs(C) + np.abs(C.T))
    deg = W.sum(axis=1)
    d = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    L = np.eye(C.shape[0]) - d[:, None] * W * d[None, :]
    eigs = np.linalg.eigvalsh(0.5 * (L + L.T))[: 2 * k]
    return {"c_fro": float(np.linalg.norm(C)), "eigs": [float(x) for x in eigs]}


def read_points(out_dir: Path) -> dict[str, dict]:
    """Per-point result.json contents keyed by grid-point directory name."""
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    return {
        p["hash"]: json.loads((out_dir / p["hash"] / "result.json").read_text(encoding="utf-8"))
        for p in summary["points"]
    }


def point_record(point_dir: Path, result: dict) -> dict:
    """What the reference stores for one point."""
    C = np.loadtxt(point_dir / "consensus.csv", delimiter=",", ndmin=2)
    return {
        "iterations": result["iterations"],
        "nmi": result["metrics"]["nmi"]["mean"],
        **fingerprint(C, result["k"]),
    }


def check_point(point_dir: Path, result: dict, eps: float, ref: dict | None) -> list[str]:
    """Problems found for one grid point; empty when it passes."""
    if "error" in result:
        return [f"solver error: {result['error']}"]
    problems = []
    if result.get("converged") is not True:
        problems.append("not converged")
    with (point_dir / "trace.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        problems.append("empty trace.csv")
    else:
        over = {k: float(v) for k, v in rows[-1].items() if k.startswith("gap_") and float(v) > eps}
        if over:
            problems.append(f"final gaps above eps={eps}: {over}")
    if ref is not None:
        got = point_record(point_dir, result)
        if abs(got["iterations"] - ref["iterations"]) > ITER_TOL:
            problems.append(f"iterations {got['iterations']} != reference {ref['iterations']}")
        if abs(got["nmi"] - ref["nmi"]) > NMI_ATOL:
            problems.append(f"nmi {got['nmi']!r} != reference {ref['nmi']!r}")
        if abs(got["c_fro"] - ref["c_fro"]) > FRO_RTOL * abs(ref["c_fro"]):
            problems.append(f"||C||_F {got['c_fro']!r} != reference {ref['c_fro']!r}")
        if len(got["eigs"]) != len(ref["eigs"]) or not np.allclose(
            got["eigs"], ref["eigs"], rtol=0.0, atol=EIG_ATOL
        ):
            problems.append("Laplacian spectrum differs from reference")
    return problems


def check_output(out_dir: Path, eps: float, refs: dict | None) -> tuple[dict, dict[str, list[str]]]:
    """Check every point of one CLI invocation.

    Returns (results by point, problems by point). `refs` maps point hash to
    its reference record, or is None to skip the reference comparison. A
    reference point the run did not produce is reported as a problem.
    """
    results = read_points(out_dir)
    problems = {
        h: check_point(out_dir / h, r, eps, None if refs is None else refs.get(h))
        for h, r in results.items()
    }
    if refs is not None:
        for h in results:
            if h not in refs:
                problems[h].append("point missing from reference")
        for h in refs:
            if h not in results:
                problems[h] = ["reference point not produced"]
    return results, {h: p for h, p in problems.items() if p}
