"""Shared glue for end-to-end checks: consensus matrix -> clustering scores,
and code run in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from gfclust.metrics import evaluate
from gfclust.spectral import build_affinity, spectral_clustering


def cluster_scores(consensus_C, labels, k, seeds, restarts=20):
    """Per-metric score lists across k-means seeds for one consensus matrix."""
    W = build_affinity(consensus_C)
    scores = {"acc": [], "nmi": [], "ari": [], "f_score": []}
    for assignment in spectral_clustering(W, k, seeds, restarts=restarts):
        report = evaluate(assignment.labels, labels)
        scores["acc"].append(report.acc)
        scores["nmi"].append(report.nmi)
        scores["ari"].append(report.ari)
        scores["f_score"].append(report.f_score)
    return scores


def median_score(consensus_C, labels, k, metric="nmi", seeds=range(10)):
    return float(np.median(cluster_scores(consensus_C, labels, k, seeds)[metric]))


# Rounding allowance for comparing NMIs. A perfect partition's NMI can miss 1
# in the last bit (1.0000000000000004 at n=300); one misassigned sample costs
# about 0.045 NMI at n=90, so no real difference is this small.
NMI_ROUNDING = 1e-12


def ablation_rule(full, frobenius, no_smoothing, margin):
    """Criterion 5 on median NMIs: ``full >= frobenius >= no_smoothing`` and
    ``full - no_smoothing >= min(margin, 1 - no_smoothing)``.

    The full model must lead the no-smoothing ablation by ``margin``, or reach
    the NMI ceiling of 1 where no-smoothing leaves less than ``margin`` below
    it. Wherever no-smoothing scores at most ``1 - margin`` this is the plain
    margin rule. Returns the branch that held, ``"margin"`` or
    ``"ceiling (no-smoothing saturated)"``, or None when the rule fails.
    """
    if full + NMI_ROUNDING < frobenius or frobenius + NMI_ROUNDING < no_smoothing:
        return None
    lead = full - no_smoothing + NMI_ROUNDING
    if lead >= margin:
        return "margin"
    if lead >= 1.0 - no_smoothing:
        return "ceiling (no-smoothing saturated)"
    return None


def run_in_fresh_interpreter(code: str) -> None:
    """Run ``code`` with ``python -c`` in a new interpreter that imports gfclust
    from this checkout; fails the test with the child's stderr unless it
    exits 0. Only a fresh interpreter shows which modules a process imports."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
