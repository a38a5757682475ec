"""The two ablation variants: re-derived updates must be stationary points of
their own subproblems, both must converge, and on one fixed noisy draw the
full model must beat them in the order reported for the ablation study."""

import numpy as np
import pytest

from gfclust.data import SyntheticSpec, generate_synthetic
from gfclust.solver import (
    SolverConfig,
    _feature_gram,
    init_state,
    solve,
    update_consensus_coefficients,
    update_view_auxiliary,
    update_view_coefficients,
)
from oracles import central_difference_gradient
from pipeline import median_score
from test_solver import CFG, consensus_sums, random_state, toy_dataset


def assert_stationary(func, point):
    grad = central_difference_gradient(func, point)
    assert np.abs(grad).max() <= 1e-6 * (1.0 + abs(func(point)))


def test_no_smoothing_ci_update_stationarity():
    ds = toy_dataset(n=5, v=2, d=4, seed=60)
    state = random_state(ds, seed=61)
    state.Y = [x.copy() for x in ds.views]  # the variant pins Y to X
    w = CFG.beta * state.gamma[0] ** CFG.eta
    ones = np.ones(5)
    X = ds.views[0]

    def f(Ci):
        return (
            np.sum((X - Ci @ X) ** 2)
            + CFG.alpha * np.sum((Ci - state.C @ state.Zi[0]) ** 2)
            + w * np.sum((state.C - Ci) ** 2)
            + state.mu / 2.0 * np.sum((Ci - state.Zi[0] + state.Lam[0] / state.mu) ** 2)
            + state.mu / 2.0 * np.sum((Ci @ ones - 1.0 + state.Omega[0] / state.mu) ** 2)
        )

    Ci = update_view_coefficients(state, 0, CFG, CZi=state.C @ state.Zi[0])
    assert_stationary(f, Ci)


def test_frobenius_ci_update_stationarity():
    ds = toy_dataset(n=5, v=2, d=4, seed=62)
    state = random_state(ds, seed=63)
    w = CFG.beta * state.gamma[1] ** CFG.eta
    ones = np.ones(5)

    def f(Ci):
        return (
            np.sum((state.Y[1] - Ci @ state.Y[1]) ** 2)
            + CFG.alpha * np.sum(Ci**2)
            + w * np.sum((state.C - Ci) ** 2)
            + state.mu / 2.0 * np.sum((Ci - state.Zi[1] + state.Lam[1] / state.mu) ** 2)
            + state.mu / 2.0 * np.sum((Ci @ ones - 1.0 + state.Omega[1] / state.mu) ** 2)
        )

    Ci = update_view_coefficients(state, 1, CFG, CZi=None)
    assert_stationary(f, Ci)


def test_frobenius_zi_update_is_multiplier_shift():
    ds = toy_dataset(n=5, v=2, d=4, seed=64)
    state = random_state(ds, seed=65)
    raw = update_view_auxiliary(state, 0, CFG, factor=None)
    np.testing.assert_allclose(raw, state.Ci[0] + state.Lam[0] / state.mu, atol=1e-14)

    def f(Zi):
        return state.mu / 2.0 * np.sum((state.Ci[0] - Zi + state.Lam[0] / state.mu) ** 2)

    assert_stationary(f, raw)


def test_no_smoothing_consensus_update_stationarity():
    ds = toy_dataset(n=5, v=2, d=4, seed=66)
    state = random_state(ds, seed=67)
    ones = np.ones(5)

    def f(C):
        total = 0.0
        for i in range(2):
            w = CFG.beta * state.gamma[i] ** CFG.eta
            total += CFG.alpha * np.sum((state.Ci[i] - C @ state.Zi[i]) ** 2)
            total += w * np.sum((C - state.Ci[i]) ** 2)
        total += state.mu / 2.0 * np.sum((C - state.Z + state.Theta / state.mu) ** 2)
        total += state.mu / 2.0 * np.sum((C @ ones - 1.0 + state.Phi / state.mu) ** 2)
        return total

    sums = consensus_sums(state, ds, CFG, "no_smoothing")
    C = update_consensus_coefficients(state, ds, CFG, XXt=None, sums=sums)
    assert_stationary(f, C)


def test_frobenius_consensus_update_stationarity():
    ds = toy_dataset(n=5, v=2, d=4, seed=68)
    state = random_state(ds, seed=69)
    ones = np.ones(5)

    def f(C):
        total = 0.0
        for i in range(2):
            w = CFG.beta * state.gamma[i] ** CFG.eta
            total += w * np.sum((C - state.Ci[i]) ** 2)
            coupling = (
                4.0 * state.Y[i]
                - 3.0 * ds.views[i]
                - C @ ds.views[i]
                + state.Gamma[i] / state.mu
            )
            total += state.mu / 2.0 * np.sum(coupling**2)
        total += state.mu / 2.0 * np.sum((C - state.Z + state.Theta / state.mu) ** 2)
        total += state.mu / 2.0 * np.sum((C @ ones - 1.0 + state.Phi / state.mu) ** 2)
        return total

    sums = consensus_sums(state, ds, CFG, "frobenius")
    C = update_consensus_coefficients(state, ds, CFG, XXt=_feature_gram(ds), sums=sums)
    assert_stationary(f, C)


def test_ablations_share_zero_initialization():
    ds = toy_dataset(n=5, v=2, seed=70)
    state = init_state(ds, CFG)
    for group in (state.Ci, state.Zi, state.Lam, state.Omega, state.Gamma):
        for arr in group:
            assert not arr.any()
    np.testing.assert_array_equal(state.gamma, [0.5, 0.5])


def test_no_smoothing_holds_the_views_as_representations():
    # Without the smoothing term no update writes Y^i, so the solve holds the
    # dataset's read-only views as Y^i instead of copies of them.
    ds = toy_dataset(n=8, v=3, seed=71)
    shared = []
    solve(
        ds, SolverConfig(max_iter=3), "no_smoothing",
        callback=lambda state: shared.append([Y is X for Y, X in zip(state.Y, ds.views)]),
    )
    assert shared == [[True] * 3] * 3


def test_ablations_converge_on_benchmark(benchmark_ablations):
    for name, output in benchmark_ablations.items():
        assert output.converged, name
        assert output.iterations <= 500


def test_frobenius_ridge_shrinks_view_coefficients():
    ds = generate_synthetic(
        SyntheticSpec(k=2, n_per_cluster=6, subspace_dim=2, view_dims=(5, 6),
                      noise_sigma=0.05, seed=50)
    )
    norms = []
    for alpha in (0.1, 1.0, 10.0):
        cfg = SolverConfig(alpha=alpha, beta=0.5, eta=0.5, max_iter=400)
        out = solve(ds, cfg, "frobenius")
        assert out.converged
        norms.append(np.mean([np.linalg.norm(Ci) for Ci in out.view_C]))
    assert norms[0] > norms[1] > norms[2]


@pytest.fixture(scope="module")
def noisy_outputs():
    """All three variants on a noisier instance of the benchmark family,
    where smoothing has actual noise to remove."""
    spec = SyntheticSpec(k=3, n_per_cluster=30, subspace_dim=3, view_dims=(20, 30),
                         noise_sigma=0.2, seed=7)
    ds = generate_synthetic(spec)
    cfg = SolverConfig(alpha=0.5, beta=0.5, eta=0.5, max_iter=500)
    return {
        "dataset": ds,
        "full": solve(ds, cfg),
        "frobenius": solve(ds, cfg, "frobenius"),
        "no_smoothing": solve(ds, cfg, "no_smoothing"),
    }


def test_ablation_ordering_on_noisy_benchmark(noisy_outputs):
    """Checks the ablation-study order (feature smoothing matters most, the
    filter regularizer second) on one fixed noisy draw: sigma=0.2, dataset
    seed 7. It does not hold on every draw: on dataset seeds 8 and 11 the
    no-smoothing ablation beats the full model by 0.24 and 0.31 median NMI
    (see the tests/test_acceptance.py docstring)."""
    ds = noisy_outputs["dataset"]
    medians = {
        name: median_score(noisy_outputs[name].consensus_C, ds.labels, k=3)
        for name in ("full", "frobenius", "no_smoothing")
    }
    assert medians["full"] >= medians["frobenius"] >= medians["no_smoothing"]
    assert medians["full"] - medians["no_smoothing"] >= 0.05
