import dataclasses
import functools
import inspect
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla

from gfclust import _lapack, solver
from gfclust._lapack import (
    cholesky,
    gram,
    spd_apply_left,
    spd_apply_right,
    spd_inverse_factor,
    spd_solve,
)
from gfclust.cli import DEFAULT_ETA_GRID, PRESETS
from gfclust.data import MultiViewDataset, SyntheticSpec, generate_synthetic
from gfclust.solver import (
    VARIANTS,
    Diagnostics,
    SolverConfig,
    SolverNumericalError,
    _add_to_diagonal,
    _consensus_residuals,
    _feature_gram,
    _view_auxiliary_factor,
    constraint_gaps,
    init_state,
    objective_value,
    project_constraints,
    solve,
    solve_peak_bytes,
    update_consensus_auxiliary,
    update_consensus_coefficients,
    update_multipliers,
    update_view_auxiliary,
    update_view_coefficients,
    update_view_representation,
    update_view_weights,
    view_mismatches,
)

import oracles
from oracles import central_difference_gradient
from pipeline import run_in_fresh_interpreter

CFG = SolverConfig(alpha=0.7, beta=0.3, eta=0.5, mu0=1e-6)


def toy_dataset(n=5, v=2, d=4, seed=0):
    rng = np.random.default_rng(seed)
    views = [rng.standard_normal((n, d)) for _ in range(v)]
    return MultiViewDataset(views=views)


def random_state(ds, cfg=CFG, seed=0, feasible_aux=False):
    """A filled-in mid-run state; auxiliaries optionally satisfy their
    constraints with unit row sums (the regime near convergence)."""
    rng = np.random.default_rng(seed)
    n = ds.n_samples
    state = init_state(ds, cfg)
    complete_graph = (np.ones((n, n)) - np.eye(n)) / (n - 1)
    for i in range(ds.n_views):
        state.Y[i] = rng.standard_normal(ds.views[i].shape)
        state.Ci[i] = rng.standard_normal((n, n))
        state.Zi[i] = complete_graph if feasible_aux else project_constraints(
            rng.standard_normal((n, n))
        )
        state.Gamma[i] = rng.standard_normal(ds.views[i].shape)
        state.Lam[i] = rng.standard_normal((n, n))
        state.Omega[i] = rng.standard_normal(n)
    state.C = rng.standard_normal((n, n))
    state.Z = complete_graph if feasible_aux else project_constraints(
        rng.standard_normal((n, n))
    )
    state.Theta = rng.standard_normal((n, n))
    state.Phi = rng.standard_normal(n)
    weights = rng.random(ds.n_views) + 0.1
    state.gamma = weights / weights.sum()
    state.mu = float(rng.uniform(0.2, 2.0))
    return state


def consensus_sums(state, ds, cfg=CFG, variant="full"):
    """The view sums of the C update, folded view by view on this thread as
    solve folds them without the worker thread."""
    sums = solver._ConsensusSums(state, cfg)
    terms = functools.partial(
        solver._consensus_terms, state, ds, cfg,
        split=variant != "frobenius", smoothing=variant != "no_smoothing",
    )  # fmt: skip
    solver._run_views(None, ds.n_views, terms, fold=sums.add)
    return sums


def after_consensus(state, ds, cfg=CFG, variant="full"):
    """Every view's work beside and after the C update, run on this thread
    as solve runs it without the helper: steps Lam^i and Omega^i, then
    Gamma^i, and returns the views' measures."""
    task = functools.partial(solver._view_beside_consensus, state)
    beside = solver._run_views(None, ds.n_views, task)
    CX = None if variant == "no_smoothing" else [None] * ds.n_views
    CZ = None if variant == "frobenius" else [None] * ds.n_views
    task = functools.partial(
        solver._view_after_consensus, state, ds, cfg, CX=CX, CZ=CZ, beside=beside
    )
    return solver._run_views(None, ds.n_views, task)


def y_system(state, i):
    """View i's Y^i system at the state's C^i and mu, as solve hands it to
    update_view_representation."""
    return solver._representation_system(state.Ci[i], state.mu)


# ---- subproblem objectives (independent oracles for stationarity checks) ----


def y_subproblem(state, ds, i):
    def f(Y):
        fit = np.sum((Y - state.Ci[i] @ Y) ** 2)
        coupling = 4.0 * Y - 3.0 * ds.views[i] - state.C @ ds.views[i] + state.Gamma[i] / state.mu
        return fit + state.mu / 2.0 * np.sum(coupling**2)

    return f


def ci_subproblem(state, i, cfg):
    w = cfg.beta * state.gamma[i] ** cfg.eta
    ones = np.ones(state.C.shape[0])

    def f(Ci):
        return (
            np.sum((state.Y[i] - Ci @ state.Y[i]) ** 2)
            + cfg.alpha * np.sum((Ci - state.C @ state.Zi[i]) ** 2)
            + w * np.sum((state.C - Ci) ** 2)
            + state.mu / 2.0 * np.sum((Ci - state.Zi[i] + state.Lam[i] / state.mu) ** 2)
            + state.mu / 2.0 * np.sum((Ci @ ones - 1.0 + state.Omega[i] / state.mu) ** 2)
        )

    return f


def zi_subproblem(state, i, cfg):
    def f(Zi):
        return cfg.alpha * np.sum((state.Ci[i] - state.C @ Zi) ** 2) + state.mu / 2.0 * np.sum(
            (state.Ci[i] - Zi + state.Lam[i] / state.mu) ** 2
        )

    return f


def c_subproblem(state, ds, cfg):
    ones = np.ones(ds.n_samples)

    def f(C):
        total = 0.0
        for i in range(ds.n_views):
            w = cfg.beta * state.gamma[i] ** cfg.eta
            total += cfg.alpha * np.sum((state.Ci[i] - C @ state.Zi[i]) ** 2)
            total += w * np.sum((C - state.Ci[i]) ** 2)
            coupling = (
                4.0 * state.Y[i] - 3.0 * ds.views[i] - C @ ds.views[i] + state.Gamma[i] / state.mu
            )
            total += state.mu / 2.0 * np.sum(coupling**2)
        total += state.mu / 2.0 * np.sum((C - state.Z + state.Theta / state.mu) ** 2)
        total += state.mu / 2.0 * np.sum((C @ ones - 1.0 + state.Phi / state.mu) ** 2)
        return total

    return f


def z_subproblem(state):
    def f(Z):
        return np.sum((state.C - Z + state.Theta / state.mu) ** 2)

    return f


def assert_stationary(func, point, scale_tol=1e-6):
    grad = central_difference_gradient(func, point)
    assert np.abs(grad).max() <= scale_tol * (1.0 + abs(func(point)))


# ---- initialization ----


def test_init_state_zeros_and_uniform_weights():
    ds = toy_dataset(n=6, v=3)
    state = init_state(ds, CFG)
    np.testing.assert_allclose(state.gamma, [1 / 3, 1 / 3, 1 / 3])
    assert state.mu == CFG.mu0 == 1e-6
    for group in (state.Y, state.Ci, state.Zi, state.Gamma, state.Lam, state.Omega):
        for arr in group:
            assert not arr.any()
    for arr in (state.C, state.Z, state.Theta, state.Phi):
        assert not arr.any()
    assert state.iteration == 0


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.0)
    with pytest.raises(ValueError):
        SolverConfig(eta=1.0)
    with pytest.raises(ValueError):
        SolverConfig(rho=0.5)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=20_000)
    with pytest.raises(ValueError):
        SolverConfig(mu0=1.0, mu_max=0.1)
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        SolverConfig(max_iter=10.5)
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        SolverConfig(max_iter=True)
    with pytest.raises(ValueError, match="alpha must be a finite number"):
        SolverConfig(alpha=float("nan"))
    with pytest.raises(ValueError, match="beta must be a finite number"):
        SolverConfig(beta=True)
    with pytest.raises(ValueError, match="eps must be a finite number"):
        SolverConfig(eps=float("inf"))
    assert SolverConfig(max_iter=np.int64(5)).max_iter == 5


@pytest.mark.parametrize("eta", [0.97, 0.98, 1.02, 1.03])
def test_config_rejects_eta_near_one(eta):
    # J_FLOOR ** (1/(1-eta)) under- or overflows here, so the all-zero first
    # iterate would give 0/0 or inf/inf view weights.
    with pytest.raises(ValueError, match=r"eta must satisfy \|1/\(1 - eta\)\| <= 25"):
        SolverConfig(eta=eta)


@pytest.mark.parametrize("eta", [0.95, 1.05, *DEFAULT_ETA_GRID])
def test_config_accepts_eta_with_finite_weights(eta):
    cfg = SolverConfig(eta=eta)
    np.testing.assert_array_equal(update_view_weights(np.zeros(2), cfg), [0.5, 0.5])
    gamma = update_view_weights(np.array([0.0, 100.0]), cfg)
    assert np.isfinite(gamma).all() and abs(gamma.sum() - 1.0) <= 1e-12


# ---- view representation update ----


def test_view_representation_zero_state_closed_form():
    ds = toy_dataset()
    state = init_state(ds, CFG)
    state.mu = 1.0
    Y = update_view_representation(
        state, ds, 0, CX=state.C @ ds.views[0], system=y_system(state, 0)
    )
    np.testing.assert_allclose(Y, (2.0 / 3.0) * ds.views[0], atol=1e-12)


def test_view_representation_stationarity():
    ds = toy_dataset(n=6, v=2, d=4, seed=1)
    state = random_state(ds, seed=2)
    Y = update_view_representation(
        state, ds, 0, CX=state.C @ ds.views[0], system=y_system(state, 0)
    )
    assert_stationary(y_subproblem(state, ds, 0), Y)


def test_view_representation_is_local_minimum():
    ds = toy_dataset(n=5, v=2, d=4, seed=3)
    state = random_state(ds, seed=4)
    Y = update_view_representation(
        state, ds, 1, CX=state.C @ ds.views[1], system=y_system(state, 1)
    )
    f = y_subproblem(state, ds, 1)
    base = f(Y)
    rng = np.random.default_rng(5)
    for _ in range(50):
        E = rng.standard_normal(Y.shape)
        E *= 1e-3 / np.linalg.norm(E)
        assert f(Y + E) >= base


# ---- view coefficient update ----


def test_view_coefficients_rank_one_limit():
    # with negligible alpha/beta and everything else zero the update reduces
    # to 11^T (I + 11^T)^{-1} = 11^T / (n + 1)
    ds = toy_dataset(n=2, v=1, d=3, seed=6)
    cfg = SolverConfig(alpha=1e-12, beta=1e-12, eta=0.5, mu0=1e-6)
    state = init_state(ds, cfg)
    state.mu = 1.0
    Ci = update_view_coefficients(state, 0, cfg, CZi=state.C @ state.Zi[0])
    np.testing.assert_allclose(Ci, np.full((2, 2), 1.0 / 3.0), atol=1e-9)


def test_view_coefficients_stationarity():
    ds = toy_dataset(n=5, v=2, d=4, seed=7)
    state = random_state(ds, seed=8)
    Ci = update_view_coefficients(state, 0, CFG, CZi=state.C @ state.Zi[0])
    assert_stationary(ci_subproblem(state, 0, CFG), Ci)


def test_view_coefficients_row_sums_under_large_penalty():
    ds = toy_dataset(n=5, v=2, d=4, seed=9)
    state = random_state(ds, seed=10, feasible_aux=True)
    state.Omega = [np.zeros(5) for _ in range(2)]
    state.mu = 1e6
    Ci = update_view_coefficients(state, 0, CFG, CZi=state.C @ state.Zi[0])
    assert np.abs(Ci.sum(axis=1) - 1.0).max() <= 1e-4


# ---- view auxiliary update ----


def test_view_auxiliary_mu_cancels_without_consensus():
    ds = toy_dataset(n=4, v=1, d=3, seed=11)
    state = random_state(ds, seed=12)
    state.C = np.zeros((4, 4))
    state.Lam = [np.zeros((4, 4))]
    factor = _view_auxiliary_factor(state.C, state.mu, CFG)
    raw = update_view_auxiliary(state, 0, CFG, project=False, factor=factor)
    np.testing.assert_allclose(raw, state.Ci[0], atol=1e-12)
    projected = update_view_auxiliary(state, 0, CFG, factor=factor)
    np.testing.assert_allclose(projected, project_constraints(state.Ci[0]), atol=1e-12)


def test_view_auxiliary_projection_contract():
    ds = toy_dataset(n=5, v=2, seed=13)
    state = random_state(ds, seed=14)
    factor = _view_auxiliary_factor(state.C, state.mu, CFG)
    Zi = update_view_auxiliary(state, 0, CFG, factor=factor)
    np.testing.assert_array_equal(Zi, Zi.T)
    assert Zi.min() >= 0.0
    np.testing.assert_array_equal(np.diag(Zi), np.zeros(5))


def test_view_auxiliary_stationarity_pre_projection():
    ds = toy_dataset(n=5, v=2, seed=15)
    state = random_state(ds, seed=16)
    factor = _view_auxiliary_factor(state.C, state.mu, CFG)
    Zi = update_view_auxiliary(state, 1, CFG, project=False, factor=factor)
    assert_stationary(zi_subproblem(state, 1, CFG), Zi)


# ---- projection ----


def test_projection_zeroes_identity():
    np.testing.assert_array_equal(project_constraints(np.eye(3)), np.zeros((3, 3)))


def test_projection_fixed_point_on_feasible_input():
    M = np.array([[0.0, 0.5, 0.1], [0.5, 0.0, 0.2], [0.1, 0.2, 0.0]])
    np.testing.assert_array_equal(project_constraints(M), M)


def test_projection_hand_sequence():
    # symmetrize -> [[1,-1],[-1,1]], clamp -> [[1,0],[0,1]], zero diagonal -> 0
    M = np.array([[1.0, -4.0], [2.0, 1.0]])
    np.testing.assert_array_equal(project_constraints(M), np.zeros((2, 2)))


def test_projection_idempotent():
    rng = np.random.default_rng(17)
    M = rng.standard_normal((6, 6))
    once = project_constraints(M)
    np.testing.assert_array_equal(project_constraints(once), once)


# ---- consensus coefficient update ----


def test_consensus_update_matches_dense_solve_oracle():
    # single view, everything zero except X with orthonormal rows: the update
    # must agree with an independently assembled dense solve
    rng = np.random.default_rng(18)
    n, d = 4, 6
    q, _ = np.linalg.qr(rng.standard_normal((d, n)))
    X = q.T[:n]  # n x d with orthonormal rows
    ds = MultiViewDataset(views=[X])
    cfg = SolverConfig(alpha=1e-12, beta=1e-12, eta=0.5)
    state = init_state(ds, cfg)
    state.mu = 1.0
    C = update_consensus_coefficients(
        state, ds, cfg, XXt=_feature_gram(ds), sums=consensus_sums(state, ds, cfg)
    )
    XXt = X @ X.T
    ones_mat = np.ones((n, n))
    A = -3.0 * XXt + ones_mat
    B = XXt + np.eye(n) + ones_mat
    expected = np.linalg.solve(B.T, A.T).T
    np.testing.assert_allclose(C, expected, atol=1e-8)


def test_feature_gram_is_exactly_symmetric():
    # The C update adds it to the Fortran-ordered B through its transpose,
    # which must leave every bit of B as adding it directly would.
    ds = toy_dataset(n=40, v=3, d=9, seed=19)
    for views in (ds.views, [np.asfortranarray(X) for X in ds.views]):
        XXt = _feature_gram(MultiViewDataset(views=views))
        assert np.array_equal(XXt, XXt.T)


def test_consensus_update_stationarity():
    ds = toy_dataset(n=5, v=2, d=4, seed=19)
    state = random_state(ds, seed=20)
    C = update_consensus_coefficients(
        state, ds, CFG, XXt=_feature_gram(ds), sums=consensus_sums(state, ds)
    )
    assert_stationary(c_subproblem(state, ds, CFG), C)


def test_consensus_update_large_mu_reaches_feasibility():
    # a consistent target: Z feasible with unit row sums and Y matching the
    # feature coupling for C = Z, so large mu can drive both gaps to zero
    ds = toy_dataset(n=5, v=2, d=4, seed=21)
    state = random_state(ds, seed=22, feasible_aux=True)
    target = state.Z
    state.Theta = np.zeros((5, 5))
    state.Phi = np.zeros(5)
    state.Gamma = [np.zeros_like(x) for x in ds.views]
    state.Y = [(3.0 * x + target @ x) / 4.0 for x in ds.views]
    state.mu = 1e6
    C = update_consensus_coefficients(
        state, ds, CFG, XXt=_feature_gram(ds), sums=consensus_sums(state, ds)
    )
    assert np.abs(C - state.Z).max() <= 1e-3
    assert np.abs(C.sum(axis=1) - 1.0).max() <= 1e-3


# ---- consensus auxiliary update ----


def test_consensus_auxiliary_passthrough():
    ds = toy_dataset(n=4, v=1, seed=23)
    state = random_state(ds, seed=24)
    state.C = project_constraints(state.C)
    state.Theta = np.zeros((4, 4))
    np.testing.assert_array_equal(update_consensus_auxiliary(state), state.C)


def test_consensus_auxiliary_antisymmetric_cancels():
    ds = toy_dataset(n=2, v=1, seed=25)
    state = random_state(ds, seed=26)
    state.C = np.array([[0.0, -2.0], [2.0, 0.0]])
    state.Theta = np.zeros((2, 2))
    np.testing.assert_array_equal(update_consensus_auxiliary(state), np.zeros((2, 2)))


def test_consensus_auxiliary_hand_projection():
    ds = toy_dataset(n=2, v=1, seed=27)
    state = random_state(ds, seed=28)
    state.C = np.array([[0.5, 1.0], [0.0, 0.5]])
    state.Theta = np.zeros((2, 2))
    np.testing.assert_array_equal(
        update_consensus_auxiliary(state), np.array([[0.0, 0.5], [0.5, 0.0]])
    )


def test_consensus_auxiliary_stationarity_pre_projection():
    ds = toy_dataset(n=5, v=2, seed=29)
    state = random_state(ds, seed=30)
    Z = update_consensus_auxiliary(state, project=False)
    assert_stationary(z_subproblem(state), Z)


# ---- multipliers ----


def feasible_fixed_point_state(ds, cfg):
    """State whose constraint gaps are all (numerically) zero."""
    n = ds.n_samples
    K = (np.ones((n, n)) - np.eye(n)) / (n - 1)
    state = init_state(ds, cfg)
    state.C = K.copy()
    state.Z = K.copy()
    for i in range(ds.n_views):
        state.Ci[i] = K.copy()
        state.Zi[i] = K.copy()
        state.Y[i] = (3.0 * ds.views[i] + K @ ds.views[i]) / 4.0
    state.mu = 0.5
    return state


def test_multipliers_unchanged_at_feasibility():
    ds = toy_dataset(n=5, v=2, seed=31)
    state = feasible_fixed_point_state(ds, CFG)
    after_consensus(state, ds)
    update_multipliers(state, CFG, _consensus_residuals(state))
    assert np.abs(state.Theta).max() <= 1e-12
    assert np.abs(state.Phi).max() <= 1e-12
    for i in range(2):
        assert np.abs(state.Gamma[i]).max() <= 1e-12
        assert np.abs(state.Lam[i]).max() <= 1e-12
        assert np.abs(state.Omega[i]).max() <= 1e-12
    assert state.mu == 0.5 * CFG.rho


def test_mu_capped_at_maximum():
    ds = toy_dataset(n=4, v=1, seed=32)
    cfg = SolverConfig(mu0=1.0, mu_max=1.0, rho=1.1)
    state = init_state(ds, cfg)
    after_consensus(state, ds, cfg)
    update_multipliers(state, cfg, _consensus_residuals(state))
    assert state.mu == 1.0


def test_omega_update_componentwise():
    ds = toy_dataset(n=4, v=1, seed=33)
    state = feasible_fixed_point_state(ds, CFG)
    delta = 0.25
    state.Ci[0] = state.Ci[0] + delta / 4.0 * np.ones((4, 4))  # rows now sum to 1 + delta
    state.Zi[0] = state.Ci[0].copy()  # keep the split gap at zero
    mu = state.mu
    after_consensus(state, ds)
    update_multipliers(state, CFG, _consensus_residuals(state))
    np.testing.assert_allclose(state.Omega[0], mu * delta * np.ones(4), atol=1e-12)


# ---- view weights ----


def test_weights_uniform_for_equal_mismatches():
    ds = toy_dataset(n=4, v=3, seed=34)
    state = init_state(ds, CFG)
    state.C = np.ones((4, 4))
    state.Ci = [np.zeros((4, 4)) for _ in range(3)]  # all J^i equal
    gamma = update_view_weights(view_mismatches(after_consensus(state, ds)), CFG)
    np.testing.assert_array_equal(gamma, np.full(3, 1.0 / 3.0))


def test_weights_hand_values_eta_2():
    ds = toy_dataset(n=2, v=2, seed=35)
    cfg = SolverConfig(alpha=1.0, beta=1.0, eta=2.0)
    state = init_state(ds, cfg)
    state.C = np.zeros((2, 2))
    state.Ci = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[2.0, 0.0], [0.0, 0.0]])]
    J = view_mismatches(after_consensus(state, ds, cfg))
    np.testing.assert_allclose(J, [1.0, 4.0])
    gamma = update_view_weights(J, cfg)
    np.testing.assert_allclose(gamma, [0.8, 0.2], atol=1e-15)


def test_weights_hand_values_eta_half():
    ds = toy_dataset(n=2, v=2, seed=36)
    state = init_state(ds, CFG)  # eta = 0.5 -> exponent 2
    state.C = np.zeros((2, 2))
    state.Ci = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[2.0, 0.0], [0.0, 0.0]])]
    gamma = update_view_weights(view_mismatches(after_consensus(state, ds)), CFG)
    np.testing.assert_allclose(gamma, [1.0 / 17.0, 16.0 / 17.0], atol=1e-15)


def test_weights_floor_survives_all_zero_start():
    ds = toy_dataset(n=4, v=2, seed=37)
    state = init_state(ds, CFG)
    gamma = update_view_weights(view_mismatches(after_consensus(state, ds)), CFG)
    np.testing.assert_array_equal(gamma, [0.5, 0.5])


def test_weights_simplex_invariant():
    ds = toy_dataset(n=5, v=3, seed=38)
    for seed in range(5):
        state = random_state(ds, seed=seed)
        gamma = update_view_weights(view_mismatches(after_consensus(state, ds)), CFG)
        assert gamma.min() > 0.0
        assert abs(gamma.sum() - 1.0) <= 1e-12


def test_weights_match_grid_minimizer_for_eta_2():
    cfg = SolverConfig(alpha=1.0, beta=1.0, eta=2.0)
    ds = toy_dataset(n=3, v=2, seed=39)
    rng = np.random.default_rng(40)
    for _ in range(5):
        J = rng.uniform(0.05, 3.0, size=2)
        state = init_state(ds, cfg)
        state.C = np.zeros((3, 3))
        state.Ci = [np.diag([np.sqrt(J[0]), 0.0, 0.0]), np.diag([np.sqrt(J[1]), 0.0, 0.0])]
        gamma = update_view_weights(view_mismatches(after_consensus(state, ds, cfg)), cfg)
        grid = np.arange(1e-3, 1.0, 1e-3)
        objective = grid**2 * J[0] + (1.0 - grid) ** 2 * J[1]
        best = grid[objective.argmin()]
        assert abs(gamma[0] - best) <= 2e-3
        assert abs(gamma[1] - (1.0 - best)) <= 2e-3


# The closed form gamma ∝ J^{1/(1-eta)} is the stationary point of
# sum_i gamma_i^eta J_i on the simplex: its minimum where gamma^eta is convex
# (eta < 0 or eta > 1), its maximum where gamma^eta is concave (0 < eta < 1).
WEIGHT_J = np.array([1.0, 2.0])
WEIGHT_GRID = np.linspace(1e-6, 1.0 - 1e-6, 200_000)


def weight_objective(gamma, eta):
    return gamma[..., 0] ** eta * WEIGHT_J[0] + gamma[..., 1] ** eta * WEIGHT_J[1]


@pytest.mark.parametrize("eta", DEFAULT_ETA_GRID)
def test_weights_regime_across_default_eta_grid(eta):
    cfg = SolverConfig(eta=eta)
    gamma = update_view_weights(WEIGHT_J, cfg)
    value = weight_objective(gamma, eta)
    grid = weight_objective(np.column_stack([WEIGHT_GRID, 1.0 - WEIGHT_GRID]), eta)
    if 0.0 < eta < 1.0:
        assert grid.max() <= value * (1.0 + 1e-12)
        assert value - grid.max() <= 1e-9 * value
    else:
        assert value <= grid.min() * (1.0 + 1e-12)
        assert grid.min() - value <= 1e-9 * value


def test_weights_maximize_at_the_preset_eta():
    # Every preset uses eta = 0.5: the closed form sits at the maximum, not
    # the minimum, which a vertex reaches.
    assert {preset[2] for preset in PRESETS.values()} == {0.5}
    gamma = update_view_weights(WEIGHT_J, CFG)
    np.testing.assert_allclose(gamma, [0.2, 0.8], rtol=1e-15)
    grid = weight_objective(np.column_stack([WEIGHT_GRID, 1.0 - WEIGHT_GRID]), 0.5)
    assert weight_objective(gamma, 0.5) == pytest.approx(np.sqrt(5.0), abs=1e-12)
    assert round(float(grid.min()), 4) == 1.0020
    assert WEIGHT_GRID[grid.argmin()] == 1.0 - 1e-6


# ---- objective ----


def test_objective_zero_state():
    ds = toy_dataset(n=4, v=2, seed=41)
    state = init_state(ds, CFG)
    assert objective_value(state, CFG, after_consensus(state, ds)) == 0.0


def test_objective_self_expression_only():
    ds = toy_dataset(n=4, v=2, seed=42)
    state = init_state(ds, CFG)
    state.Y = [x.copy() for x in ds.views]
    expected = sum(float(np.sum(x**2)) for x in ds.views)
    assert objective_value(state, CFG, after_consensus(state, ds)) == pytest.approx(
        expected, rel=1e-12
    )


def test_objective_matches_term_by_term_recomputation():
    ds = toy_dataset(n=5, v=2, seed=43)
    state = random_state(ds, seed=44)
    total = 0.0
    for i in range(2):
        residual = state.Y[i] - state.Ci[i] @ state.Y[i]
        total += float((residual * residual).sum())
        split = state.Ci[i] - state.C @ state.Zi[i]
        total += CFG.alpha * float((split * split).sum())
        pull = state.C - state.Ci[i]
        total += CFG.beta * state.gamma[i] ** CFG.eta * float((pull * pull).sum())
    assert objective_value(state, CFG, after_consensus(state, ds)) == pytest.approx(
        total, rel=1e-10
    )


# ---- solve driver ----


def small_solvable_dataset(seed=50):
    spec = SyntheticSpec(
        k=2, n_per_cluster=6, subspace_dim=2, view_dims=(5, 6), noise_sigma=0.05, seed=seed
    )
    return generate_synthetic(spec)


def test_solve_iteration_cap():
    ds = small_solvable_dataset()
    out = solve(ds, SolverConfig(max_iter=1))
    assert out.converged is False
    assert out.iterations == 1
    assert len(out.diagnostics) == 1


def test_solve_rejects_unknown_variant():
    with pytest.raises(ValueError, match="unknown variant 'ridge'"):
        solve(small_solvable_dataset(), SolverConfig(max_iter=1), "ridge")


def test_solve_single_view_runs_with_unit_weight():
    ds = MultiViewDataset(views=[small_solvable_dataset().views[0]])
    seen = []
    out = solve(ds, SolverConfig(max_iter=40), callback=lambda s: seen.append(s.gamma.copy()))
    assert all(np.array_equal(g, [1.0]) for g in seen)
    np.testing.assert_array_equal(out.gamma, [1.0])


# At n = 150 the n x n arrays dominate the footprint. A solve that kept the
# first phase's arrays until they were rebound (C X^i, C Z^i, the old C^i and
# Z^i, the Z^i factor and view i's Gram) peaked there at 27.5 n^2 doubles in
# the full variant, above the bound of 27.0 n^2. The benchmark's
# shapes: two narrow views at n = 300, and six views of the UCI Handwritten
# dims at n = 200, four of them wide enough for the Cholesky C^i update.
# The wide shapes are the presets' regime, d_i of 8 n to 12 n, beyond the
# 7 n the estimate was fitted on; with the worker's timing, wide2_n40's
# frobenius solve has peaked at up to 95 % of the estimate.
PEAK_SHAPES = {
    "n150": (3, 50, (15, 20, 10)),
    "solve_n300": (3, 100, (20, 30)),
    "hw6_manifest": (10, 20, (76, 216, 64, 240, 47, 6)),
    "wide3_n60": (6, 10, (600, 700, 500)),
    "wide2_n40": (4, 10, (400, 400)),
}


@pytest.mark.parametrize(
    "shape,variant",
    [
        pytest.param(shape, variant, id=variant if shape == "n150" else f"{shape}-{variant}")
        for shape in PEAK_SHAPES
        for variant in VARIANTS
    ],
)
def test_solve_peak_stays_within_estimate(monkeypatch, shape, variant):
    # The helper thread puts two views' temporaries in flight at once, so the
    # estimate must bound the solve with it, on any machine.
    monkeypatch.setattr(solver, "_use_helper_thread", lambda n_views: True)
    k, n_per_cluster, view_dims = PEAK_SHAPES[shape]
    spec = SyntheticSpec(
        k=k, n_per_cluster=n_per_cluster, subspace_dim=3, view_dims=view_dims, noise_sigma=0.1,
        seed=7,
    )  # fmt: skip
    ds = generate_synthetic(spec)
    tracemalloc.start()
    try:
        solve(ds, SolverConfig(max_iter=5), variant)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= solve_peak_bytes(k * n_per_cluster, len(view_dims), sum(view_dims))


def test_solve_deterministic():
    ds = small_solvable_dataset()
    cfg = SolverConfig(max_iter=60)
    first = solve(ds, cfg)
    second = solve(ds, cfg)
    np.testing.assert_array_equal(first.consensus_C, second.consensus_C)
    np.testing.assert_array_equal(first.gamma, second.gamma)
    assert first.diagnostics.objective == second.diagnostics.objective


def test_solve_small_dataset_converges():
    ds = small_solvable_dataset()
    out = solve(ds, SolverConfig(max_iter=400))
    assert out.converged
    diag = out.diagnostics
    for gap in (diag.gap_Y, diag.gap_CiZi, diag.gap_Ci1, diag.gap_CZ, diag.gap_C1):
        assert gap[-1] <= 1e-4
    assert diag.residual_C[-1] <= 1e-6
    assert diag.residual_Z[-1] <= 1e-6


def test_solve_mu_schedule_exact():
    ds = small_solvable_dataset()
    cfg = SolverConfig(max_iter=30, mu0=1e-3, rho=1.3, mu_max=1e-1)
    mus = []
    solve(ds, cfg, callback=lambda s: mus.append(s.mu))
    expected = cfg.mu0
    for observed in mus:
        expected = min(cfg.mu_max, cfg.rho * expected)
        assert observed == expected


def test_solve_diagnostics_finite_and_nonnegative():
    ds = small_solvable_dataset()
    out = solve(ds, SolverConfig(max_iter=50))
    diag = out.diagnostics
    for series in (
        diag.residual_C,
        diag.residual_Z,
        diag.gap_Y,
        diag.gap_CiZi,
        diag.gap_Ci1,
        diag.gap_CZ,
        diag.gap_C1,
        diag.objective,
    ):
        arr = np.asarray(series)
        assert np.all(np.isfinite(arr))
        assert np.all(arr >= 0.0)
    for J in diag.J:
        assert np.all(J >= 0.0)


# Each weight exponent at alpha = beta = 0.5, then each published preset's
# (alpha, beta, eta): MSRC-v1's alpha = 1e-5 and Caltech101-7's alpha = 5,
# beta = 10 are the extremes the CLI offers.
@pytest.mark.parametrize(
    "alpha,beta,eta",
    [pytest.param(0.5, 0.5, eta, id=str(eta)) for eta in (-5.0, -2.0, -1.0, 0.1, 1.5, 2.0, 5.0)]
    + [pytest.param(*weights, id=name) for name, weights in PRESETS.items()],
)
def test_solve_converges_across_weight_exponents(alpha, beta, eta):
    ds = small_solvable_dataset()
    out = solve(ds, SolverConfig(alpha=alpha, beta=beta, eta=eta, max_iter=500))
    assert out.converged
    assert out.gamma.min() > 0.0
    assert abs(out.gamma.sum() - 1.0) <= 1e-12
    assert np.isfinite(out.diagnostics.objective[-1])


def test_spd_solve_reports_failed_factorization():
    with pytest.raises(np.linalg.LinAlgError, match="leading minor 2 is not positive definite"):
        spd_solve(cholesky(np.diag([1.0, -1.0])), np.eye(2))


def test_spd_inverse_factor_reports_failed_factorization():
    with pytest.raises(np.linalg.LinAlgError, match="leading minor 2 is not positive definite"):
        spd_inverse_factor(np.diag([1.0, -1.0]))


# Every linear-algebra operation an iteration of the full variant calls.
@pytest.mark.parametrize(
    "operation", ["gram", "spd_solve", "spd_inverse_factor", "spd_apply_left", "spd_apply_right"]
)
def test_solve_reports_linear_algebra_failure_once(monkeypatch, operation):
    # solve is the one place that turns a LinAlgError into a
    # SolverNumericalError; the failing call comes from iteration 3.
    completed = []
    original = getattr(solver, operation)

    def fail_in_third_iteration(*args, **kwargs):
        if len(completed) == 2:
            raise np.linalg.LinAlgError("dpotrf: leading minor 2 is not positive definite")
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, operation, fail_in_third_iteration)
    with pytest.raises(SolverNumericalError) as excinfo:
        solve(small_solvable_dataset(), SolverConfig(max_iter=10), callback=completed.append)
    error = excinfo.value
    assert error.iteration == 3
    assert len(error.diagnostics) == 2
    assert str(error) == (
        "linear solve failed at iteration 3: dpotrf: leading minor 2 is not positive definite"
    )


@pytest.mark.parametrize("max_iter", [10, 2])
def test_solve_holds_a_failed_view_auxiliary_factor(monkeypatch, max_iter):
    # Iteration 3's Z^i factor is the third formed, in iteration 2. Its
    # failure is iteration 3's, and a solve that stops at 2 never raises it.
    completed = []
    formed_in = []
    original = solver._view_auxiliary_factor

    def fail_for_third_iteration(*args):
        formed_in.append(len(completed) + 1)
        if len(formed_in) == 3:
            raise np.linalg.LinAlgError("dpotrf: leading minor 2 is not positive definite")
        return original(*args)

    monkeypatch.setattr(solver, "_view_auxiliary_factor", fail_for_third_iteration)
    cfg = SolverConfig(max_iter=max_iter)
    if max_iter == 2:
        out = solve(small_solvable_dataset(), cfg, callback=completed.append)
        assert out.iterations == 2
        assert formed_in == [1, 1, 2]
        return
    with pytest.raises(SolverNumericalError) as excinfo:
        solve(small_solvable_dataset(), cfg, callback=completed.append)
    assert formed_in == [1, 1, 2]
    error = excinfo.value
    assert error.iteration == 3
    assert len(error.diagnostics) == 2
    assert str(error) == (
        "linear solve failed at iteration 3: dpotrf: leading minor 2 is not positive definite"
    )


@pytest.mark.parametrize("max_iter", [10, 2])
def test_solve_holds_a_failed_look_ahead_factorization(monkeypatch, max_iter):
    # In iteration 2 the C update waits until the worker, left without a
    # view beside it, has tried to factor a Y^i system of iteration 3 ahead
    # (view 1's: with two views, the last view's system is never started
    # in the first dispatch), which fails. The failure is iteration 3's, and
    # a solve that stops at 2 never raises it.
    monkeypatch.setattr(solver, "_use_helper_thread", lambda n_views: True)
    completed = []
    failed_in = []
    in_update = threading.Event()
    failed = threading.Event()
    original_cholesky = solver.cholesky
    original_update = solver.update_consensus_coefficients

    def fail_beside_the_second_c_update(A):
        if in_update.is_set() and not failed.is_set():
            failed_in.append(len(completed) + 1)
            failed.set()
            raise np.linalg.LinAlgError("dpotrf: leading minor 2 is not positive definite")
        return original_cholesky(A)

    def update_once_failed(*args, **kwargs):
        if len(completed) == 1:
            in_update.set()
            assert failed.wait(timeout=30)
            in_update.clear()
        return original_update(*args, **kwargs)

    monkeypatch.setattr(solver, "cholesky", fail_beside_the_second_c_update)
    monkeypatch.setattr(solver, "update_consensus_coefficients", update_once_failed)
    cfg = SolverConfig(max_iter=max_iter)
    if max_iter == 2:
        out = solve(small_solvable_dataset(), cfg, callback=completed.append)
        assert out.iterations == 2
        assert failed_in == [2]
        return
    with pytest.raises(SolverNumericalError) as excinfo:
        solve(small_solvable_dataset(), cfg, callback=completed.append)
    assert failed_in == [2]
    error = excinfo.value
    assert error.iteration == 3
    assert len(error.diagnostics) == 2
    assert str(error) == (
        "linear solve failed at iteration 3: dpotrf: leading minor 2 is not positive definite"
    )


def test_held_work_takes_steps_and_holds_a_failure(monkeypatch):
    # The next iteration's work: a view's Y^i system (the matrix, then its
    # Cholesky factor) and the Z^i factor (one step).
    ds = toy_dataset(n=6, v=1, d=3, seed=90)
    state = random_state(ds, seed=91)
    Ci, mu = state.Ci[0], state.mu
    expected = cholesky(_add_to_diagonal(gram(np.eye(6) - Ci, 2.0), 16.0 * mu))
    system = solver._representation_system(Ci, mu)
    assert [system.step(), system.step(), system.step()] == [True, False, False]
    same_bits(system.result(), expected)
    factor = solver._HeldWork(functools.partial(_view_auxiliary_factor, state.C, mu, CFG))
    assert factor.step() is False
    same_bits(factor.result(), _view_auxiliary_factor(state.C, mu, CFG))
    # result takes the steps left
    same_bits(solver._representation_system(Ci, mu).result(), expected)

    error = np.linalg.LinAlgError("dpotrf: leading minor 2 is not positive definite")
    ran = []

    def fails(*args):
        ran.append("failed")
        raise error

    def must_not_run(*args):
        ran.append("ran after a failure")

    monkeypatch.setattr(solver, "_representation_matrix", fails)
    monkeypatch.setattr(solver, "cholesky", must_not_run)
    first_fails = solver._representation_system(Ci, mu)
    monkeypatch.undo()
    monkeypatch.setattr(solver, "cholesky", fails)
    second_fails = solver._representation_system(Ci, mu)
    monkeypatch.setattr(solver, "_view_auxiliary_factor", fails)
    factor_fails = solver._HeldWork(
        functools.partial(solver._view_auxiliary_factor, state.C, mu, CFG)
    )
    for work, steps_before in [(first_fails, 0), (second_fails, 1), (factor_fails, 0)]:
        ran.clear()
        for _ in range(steps_before):
            assert work.step()
        # the failing step leaves no step, and no later step runs
        assert work.step() is False
        assert work.step() is False
        for _ in range(2):
            with pytest.raises(np.linalg.LinAlgError) as excinfo:
                work.result()
            assert excinfo.value is error
        assert ran == ["failed"]


def test_only_solve_takes_a_variant():
    # solve is the one place that maps a variant to what the updates read:
    # every other function gets the products, None where a variant lacks one.
    takes = []
    for name, obj in vars(solver).items():
        if getattr(obj, "__module__", None) != solver.__name__:
            continue
        if inspect.isclass(obj):
            functions = [(f"{name}.{k}", f) for k, f in vars(obj).items() if inspect.isfunction(f)]
        elif inspect.isfunction(obj):
            functions = [(name, obj)]
        else:
            continue
        takes += [
            qualified for qualified, f in functions if "variant" in inspect.signature(f).parameters
        ]
    assert takes == ["solve"]


def test_updates_take_every_product_they_read():
    # solve forms each product an update reads (C X^i, C Z^i, the Y^i system,
    # the Z^i factor, sum_i X^i X^i^T) once and hands it over, so no update
    # has a default under which it would form one from the state itself.
    defaulted = [
        f"{name}({param.name}=...)"
        for name, f in vars(solver).items()
        if name.startswith("update_") and inspect.isfunction(f)
        for param in inspect.signature(f).parameters.values()
        if param.kind is param.KEYWORD_ONLY and param.default is not param.empty
    ]
    assert defaulted == []


def test_solve_reports_a_non_finite_view_iterate_from_the_worker(monkeypatch):
    # In iteration 3 the worker plants a NaN in the Lam^i it steps beside the
    # C update, which waits until it has. Only the view's own finiteness
    # check on the worker sees it, and it must still stop the solve there.
    monkeypatch.setattr(solver, "_use_helper_thread", lambda n_views: True)
    caller = threading.current_thread()
    planted = threading.Event()
    completed = []
    original_beside = solver._view_beside_consensus
    original_update = solver.update_consensus_coefficients

    def plant_on_worker(state, i):
        measures = original_beside(state, i)
        if len(completed) == 2 and threading.current_thread() is not caller:
            state.Lam[i][0, 1] = np.nan
            planted.set()
        return measures

    def update_once_planted(*args, **kwargs):
        if len(completed) == 2:
            assert planted.wait(timeout=30)
        return original_update(*args, **kwargs)

    monkeypatch.setattr(solver, "_view_beside_consensus", plant_on_worker)
    monkeypatch.setattr(solver, "update_consensus_coefficients", update_once_planted)
    with pytest.raises(SolverNumericalError) as excinfo:
        solve(small_solvable_dataset(), SolverConfig(max_iter=10), callback=completed.append)
    error = excinfo.value
    assert error.iteration == 3
    assert len(error.diagnostics) == 3
    assert str(error) == "non-finite iterate at iteration 3"


def assert_bitwise_equal(actual, expected):
    """Equal bits, dtypes and shapes, through dataclasses and lists."""
    assert type(actual) is type(expected)
    if dataclasses.is_dataclass(actual):
        for f in dataclasses.fields(actual):
            assert_bitwise_equal(getattr(actual, f.name), getattr(expected, f.name))
    elif isinstance(actual, list):
        assert len(actual) == len(expected)
        for a, e in zip(actual, expected):
            assert_bitwise_equal(a, e)
    elif isinstance(actual, np.ndarray):
        assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
        assert actual.tobytes() == expected.tobytes()
    else:
        assert np.asarray(actual).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_solve_with_helper_thread_is_bitwise_serial(monkeypatch, variant):
    # View dims 5 and 8 at n = 60 take the thin-SVD C^i update, 30 the
    # inverse Cholesky one. Both threads must run each of the views' three
    # steps and fold terms into the C update's sums. Every other C update is
    # slowed, which leaves the worker without a view beside it, so that it
    # brings the next Y^i systems forward, which a solve without the worker
    # never does; in the other iterations either thread may take its views.
    spec = SyntheticSpec(
        k=3, n_per_cluster=20, subspace_dim=3, view_dims=(5, 30, 8), noise_sigma=0.1, seed=3
    )
    ds = generate_synthetic(spec)
    threads = {"views": set(), "sums": set(), "beside consensus": set(), "after consensus": set()}
    calling_thread = {"C update": set(), "Z^i factor": set()}

    def recording(key, original, record=threads):
        def record_thread(*args, **kwargs):
            record[key].add(threading.get_ident())
            return original(*args, **kwargs)

        return record_thread

    monkeypatch.setattr(
        solver, "update_view_coefficients", recording("views", solver.update_view_coefficients)
    )
    monkeypatch.setattr(solver._ConsensusSums, "add", recording("sums", solver._ConsensusSums.add))
    for key, name in [
        ("beside consensus", "_view_beside_consensus"),
        ("after consensus", "_view_after_consensus"),
    ]:
        monkeypatch.setattr(solver, name, recording(key, getattr(solver, name)))
    for key, name in [
        ("C update", "update_consensus_coefficients"),
        ("Z^i factor", "_view_auxiliary_factor"),
    ]:
        monkeypatch.setattr(solver, name, recording(key, getattr(solver, name), calling_thread))
    original_update = solver.update_consensus_coefficients
    updates = []

    def slow_update(*args, **kwargs):
        updates.append(None)
        if len(updates) % 2:
            time.sleep(0.002)
        return original_update(*args, **kwargs)

    monkeypatch.setattr(solver, "update_consensus_coefficients", slow_update)
    calling = threading.current_thread()
    look_ahead_on = {True: set(), False: set()}
    original_run_views = solver._run_views

    def run_views_recording_spare(pool, n_views, task, fold=None, shared=None, spare=None):
        def record_spare(i):
            thread = "caller" if threading.current_thread() is calling else "worker"
            look_ahead_on[helper].add(thread)
            return spare(i)

        spare_step = None if spare is None else record_spare
        return original_run_views(pool, n_views, task, fold=fold, shared=shared, spare=spare_step)

    monkeypatch.setattr(solver, "_run_views", run_views_recording_spare)
    outputs = []
    threads_before = threading.active_count()
    # Switch threads as often as the interpreter allows, so that the two
    # interleave everywhere in both phases and in the in-order fold.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for helper in (True, False):
            monkeypatch.setattr(solver, "_use_helper_thread", lambda n_views: helper)
            outputs.append(solve(ds, SolverConfig(max_iter=60), variant))
    finally:
        sys.setswitchinterval(interval)
    assert_bitwise_equal(*outputs)
    assert {key: len(ids) for key, ids in threads.items()} == dict.fromkeys(threads, 2)
    # the shared work of the C update and of the next Z^i factor (which
    # frobenius does not form) stays on the calling thread
    caller = {threading.get_ident()}
    expected = {"C update": caller, "Z^i factor": set() if variant == "frobenius" else caller}
    assert calling_thread == expected
    # no_smoothing has no Y^i update to bring forward
    assert ("worker" in look_ahead_on[True]) == (variant != "no_smoothing")
    assert look_ahead_on[False] == set()
    assert threading.active_count() == threads_before


def test_helper_thread_rule(monkeypatch):
    # Only with several views, several CPUs and single-threaded OpenBLAS.
    monkeypatch.setattr(solver, "blas_threads", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert solver._use_helper_thread(2)
    assert not solver._use_helper_thread(1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert not solver._use_helper_thread(6)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(solver, "blas_threads", lambda: 2)
    assert not solver._use_helper_thread(6)


def test_solve_reports_helper_thread_failure_once(monkeypatch):
    # spd_solve runs once per view (the Y^i update). In iteration 3 the
    # calling thread waits in its first call until the helper has made one,
    # which fails, so the helper is sure to fail while both are in the block.
    monkeypatch.setattr(solver, "_use_helper_thread", lambda n_views: True)
    caller = threading.current_thread()
    helper_failed = threading.Event()
    completed = []
    original = solver.spd_solve

    def fail_on_helper_in_third_iteration(A, B):
        if len(completed) == 2:
            if threading.current_thread() is caller:
                assert helper_failed.wait(timeout=30)
            else:
                helper_failed.set()
                raise np.linalg.LinAlgError("dpotrf: leading minor 2 is not positive definite")
        return original(A, B)

    monkeypatch.setattr(solver, "spd_solve", fail_on_helper_in_third_iteration)
    threads_before = threading.active_count()
    with pytest.raises(SolverNumericalError) as excinfo:
        solve(small_solvable_dataset(), SolverConfig(max_iter=10), callback=completed.append)
    error = excinfo.value
    assert error.iteration == 3
    assert len(error.diagnostics) == 2
    assert str(error) == (
        "linear solve failed at iteration 3: dpotrf: leading minor 2 is not positive definite"
    )
    assert threading.active_count() == threads_before


N_VIEWS = 8


def run_views_on_pool(task, fold=None, shared=None, spare=None) -> dict:
    """``_run_views`` on a real one-worker pool at the shortest switch
    interval, called from a thread named "run-views" that is joined with a
    timeout; returns the results or what it raised. Checks that it does not
    hang and leaves no thread behind."""
    outcome = {}

    def run():
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                outcome["results"] = solver._run_views(pool, N_VIEWS, task, fold, shared, spare)
        except Exception as exc:
            outcome["raised"] = exc

    threads_before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=run, name="run-views", daemon=True)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive(), "_run_views hangs"
    assert threading.active_count() == threads_before
    return outcome


@pytest.mark.parametrize("folding", [True, False], ids=["fold", "results"])
def test_run_views_keeps_view_order(folding):
    # Tasks of uneven length; view 0 ends only once the other thread has
    # started view 1, so both threads run views. Each view's fold runs on
    # the thread that ran the view, and in view order.
    view_1_started = threading.Event()
    ran_on = {}
    folds = []

    def task(i):
        ran_on[i] = threading.get_ident()
        if i == 1:
            view_1_started.set()
        elif i == 0:
            assert view_1_started.wait(timeout=30)
        time.sleep(0.002 * (i * 5 % 3))
        return i * i

    def fold(i, result):
        folds.append((i, result, threading.get_ident()))

    outcome = run_views_on_pool(task, fold if folding else None)
    assert len(set(ran_on.values())) == 2
    if folding:
        assert outcome == {"results": [None] * N_VIEWS}
        assert folds == [(i, i * i, ran_on[i]) for i in range(N_VIEWS)]
    else:
        assert outcome == {"results": [i * i for i in range(N_VIEWS)]}


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_run_views_raises_a_failure_once(failing):
    # The failing thread fails in its first view k once the other thread has
    # run a later view and so waits for that view's fold turn, which never
    # comes. The one error must come out of _run_views, and no view after
    # the waiting one may start, nor any fold from view k on run.
    failing_view = []
    failing_took = threading.Event()
    other_waits = threading.Event()
    started, folds, raised = [], [], []

    def on_failing_thread():
        return (threading.current_thread().name == "run-views") == (failing == "caller")

    def task(i):
        started.append(i)
        if on_failing_thread():
            failing_view.append(i)
            failing_took.set()
            assert other_waits.wait(timeout=30)
            time.sleep(0.1)  # let the other thread block in its wait
            raised.append(ValueError(f"view {i} failed"))
            raise raised[-1]
        assert failing_took.wait(timeout=30)
        if i > failing_view[0]:
            other_waits.set()
        return i

    outcome = run_views_on_pool(task, lambda i, result: folds.append(i))
    k = failing_view[0]
    assert len(raised) == 1
    assert outcome == {"raised": raised[0]}
    assert sorted(started) == list(range(k + 2))
    assert folds == list(range(k))


@pytest.mark.parametrize("folding", [True, False], ids=["fold", "results"])
def test_run_views_runs_shared_beside_the_worker(folding):
    # shared returns only once the worker has taken three views, and the
    # worker takes none after those until the calling thread has joined it.
    # Results and folds stay in view order.
    worker_took_three = threading.Event()
    caller_joined = threading.Event()
    ran_on, folds, shared_on = {}, [], []

    def task(i):
        name = threading.current_thread().name
        ran_on[i] = name
        if name == "run-views":
            caller_joined.set()
        elif i == 2:
            worker_took_three.set()
        elif i > 2:
            assert caller_joined.wait(timeout=30)
        time.sleep(0.002 * (i * 5 % 3))
        return i * i

    def shared():
        shared_on.append(threading.current_thread().name)
        assert worker_took_three.wait(timeout=30)

    def fold(i, result):
        folds.append((i, result, ran_on[i], threading.current_thread().name))

    outcome = run_views_on_pool(task, fold if folding else None, shared)
    assert shared_on == ["run-views"]
    assert "run-views" not in [ran_on[i] for i in range(3)]
    assert "run-views" in ran_on.values()
    if folding:
        assert outcome == {"results": [None] * N_VIEWS}
        assert folds == [(i, i * i, ran_on[i], ran_on[i]) for i in range(N_VIEWS)]
    else:
        assert outcome == {"results": [i * i for i in range(N_VIEWS)]}


@pytest.mark.parametrize("failing", ["shared", "view"])
def test_run_views_raises_a_failure_beside_shared_once(failing):
    # Either shared fails while the worker runs view 0, or view 0 fails
    # while shared runs. The one error must come out of _run_views, and no
    # later view may start, nor any fold run.
    worker_in_view = threading.Event()
    shared_failed = threading.Event()
    view_failed = threading.Event()
    started, folds, raised = [], [], []

    def fail(what, failed):
        raised.append(ValueError(f"{what} failed"))
        failed.set()
        raise raised[-1]

    def task(i):
        started.append(i)
        worker_in_view.set()
        if failing == "view":
            fail(f"view {i}", view_failed)
        assert shared_failed.wait(timeout=30)
        time.sleep(0.1)  # let the calling thread record the failure
        return i

    def shared():
        assert worker_in_view.wait(timeout=30)
        if failing == "shared":
            fail("shared", shared_failed)
        assert view_failed.wait(timeout=30)
        time.sleep(0.1)  # let the worker record the failure

    outcome = run_views_on_pool(task, lambda i, result: folds.append(i), shared)
    assert len(raised) == 1
    assert outcome == {"raised": raised[0]}
    assert started == [0]
    assert folds == []


def thread_role() -> str:
    """"caller" on the thread that calls ``run_views_on_pool``'s
    ``_run_views``, "worker" on its pool's."""
    return "caller" if threading.current_thread().name == "run-views" else "worker"


def two_step_spare(record):
    """A spare that takes two steps per view and appends (i, thread role)
    to ``record`` for each."""

    def spare(i):
        record.append((i, thread_role()))
        return [j for j, _ in record].count(i) < 2

    return spare


def test_run_views_spares_beside_shared_until_it_returns():
    # The worker takes every view while shared runs, then spares. Its third
    # step goes on until shared has returned, after which it must take no
    # other: the dispatch ends at most one spare step late.
    shared_returning = threading.Event()
    third_step = threading.Event()
    started, steps = [], []
    spare = two_step_spare(steps)

    def task(i):
        started.append(i)
        return i

    def shared():
        assert third_step.wait(timeout=30)
        shared_returning.set()

    def spare_until_shared_returns(i):
        assert sorted(started) == list(range(N_VIEWS))  # no view left
        if len(steps) == 2:
            third_step.set()
            assert shared_returning.wait(timeout=30)
            time.sleep(0.1)  # let the calling thread finish the dispatch
        return spare(i)

    outcome = run_views_on_pool(task, shared=shared, spare=spare_until_shared_returns)
    assert outcome == {"results": list(range(N_VIEWS))}
    assert steps == [(0, "worker"), (0, "worker"), (1, "worker")]


@pytest.mark.parametrize("folding", [True, False], ids=["fold", "results"])
def test_run_views_spares_beside_the_last_view(folding):
    # The last view's task runs until the other thread, left without a
    # view, has spared every view it may: with a fold only views already
    # folded, view by view in order. It must spare only while the last
    # view's fold has not run, and not on the thread that runs the last view.
    last = N_VIEWS - 1
    allowed = last if folding else N_VIEWS
    all_spared = threading.Event()
    ran_on, folds, steps, seen = {}, [], [], []
    spare = two_step_spare(steps)

    def task(i):
        ran_on[i] = thread_role()
        if i == last:
            assert all_spared.wait(timeout=30)
            time.sleep(0.1)  # time to spare a view it may not
        return i

    def fold(i, result):
        folds.append(i)

    def spare_recording(i):
        seen.append((i, list(folds)))
        left = spare(i)
        if not left and i == allowed - 1:
            all_spared.set()
        return left

    outcome = run_views_on_pool(task, fold if folding else None, spare=spare_recording)
    assert outcome == {"results": [None] * N_VIEWS if folding else list(range(N_VIEWS))}
    assert [i for i, _ in steps] == [i for i in range(allowed) for _ in range(2)]
    assert {role for _, role in steps} == {"caller", "worker"} - {ran_on[last]}
    for i, folded in seen:
        assert last not in folded
        assert not folding or i in folded


def test_run_views_without_a_pool_never_spares():
    steps, folds = [], []
    results = solver._run_views(
        None, N_VIEWS, lambda i: i, lambda i, result: folds.append(i), lambda: None,
        two_step_spare(steps),
    )  # fmt: skip
    assert results == [None] * N_VIEWS
    assert folds == list(range(N_VIEWS))
    assert steps == []


@pytest.mark.parametrize("failing", ["spare", "view"])
def test_run_views_raises_a_failure_beside_a_spare_once(failing):
    # The thread left without a view takes its first spare step while the
    # other runs the last view, and either that step fails or the last view
    # fails during it. The one error must come out of _run_views, and
    # neither the last view's fold nor another spare step may run.
    last = N_VIEWS - 1
    in_spare = threading.Event()
    failed = threading.Event()
    started, folds, steps, raised = [], [], [], []

    def fail(what):
        raised.append(ValueError(f"{what} failed"))
        failed.set()
        raise raised[-1]

    def task(i):
        started.append(i)
        if i == last:
            assert in_spare.wait(timeout=30)
            if failing == "view":
                fail(f"view {i}")
            assert failed.wait(timeout=30)
            time.sleep(0.1)  # let the failing thread record the failure
        return i

    def spare(i):
        steps.append(i)
        in_spare.set()
        if failing == "spare":
            fail(f"spare step of view {i}")
        assert failed.wait(timeout=30)
        time.sleep(0.1)  # let the failing thread record the failure
        return True

    outcome = run_views_on_pool(task, lambda i, result: folds.append(i), spare=spare)
    assert len(raised) == 1
    assert outcome == {"raised": raised[0]}
    assert sorted(started) == list(range(N_VIEWS))
    assert folds == list(range(last))
    assert steps == [0]


def test_blas_threads():
    # tests/conftest.py pins OPENBLAS_NUM_THREADS=1 before numpy is loaded.
    assert _lapack.blas_threads() == 1


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS caps its threads at the CPU count"
)
def test_blas_threads_follows_openblas_num_threads():
    run_in_fresh_interpreter(
        "import os\n"
        "os.environ['OPENBLAS_NUM_THREADS'] = '2'\n"
        "from gfclust._lapack import blas_threads\n"
        "assert blas_threads() == 2, blas_threads()\n"
    )


def test_solve_aborts_on_non_finite_iterates():
    huge = 1e200
    views = [huge * np.eye(4) + np.ones((4, 4)), huge * np.eye(4)[:, :3] + 1.0]
    ds = MultiViewDataset(views=views)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverNumericalError) as excinfo:
            solve(ds, SolverConfig(max_iter=10))
    assert excinfo.value.iteration >= 1


def test_benchmark_solve_converges(benchmark_run):
    out = benchmark_run["output"]
    assert out.converged
    assert out.iterations <= 500
    assert isinstance(out.diagnostics, Diagnostics)


def test_benchmark_auxiliary_invariants_every_iteration(benchmark_run):
    recorder = benchmark_run["recorder"]
    assert max(recorder.aux_asym) == 0.0
    assert min(recorder.aux_min) >= 0.0
    assert max(recorder.aux_diag) == 0.0


def test_benchmark_gamma_simplex_every_iteration(benchmark_run):
    recorder = benchmark_run["recorder"]
    assert all(abs(total - 1.0) <= 1e-12 for total in recorder.gamma_sum)
    assert all(low > 0.0 for low in recorder.gamma_min)


# ---- structured updates against the dense reference ----
#
# The solver exploits the matrix structure of its updates (thin-SVD C^i solve
# when 4(d_i + 1) <= n, one Z^i factor per iteration, syrk Gram matrices,
# products shared between updates), which reorders floating-point work. Every
# update must match the dense forms in oracles.py to EQUIV_RTOL, relative to
# the largest entry of the reference: about 4500 units of double-precision
# rounding, far above the 1e-14 observed and far below any modelling change.

EQUIV_RTOL = 1e-12


def assert_equivalent(actual, expected, rtol=EQUIV_RTOL):
    expected = np.asarray(expected)
    scale = max(1.0, float(np.abs(expected).max()))
    assert np.abs(np.asarray(actual) - expected).max() <= rtol * scale


# (n, d): d=3 and d=9 at n=40 take the thin-SVD C^i solve (4(d+1) <= n),
# d=10 at n=40 and d=4 at n=5 the Cholesky solve.
STRUCTURE_CASES = [(5, 4), (40, 3), (40, 9), (40, 10)]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n,d", STRUCTURE_CASES)
def test_updates_match_dense_reference(variant, n, d):
    ds = toy_dataset(n=n, v=2, d=d, seed=60 + n + d)
    state = random_state(ds, seed=61 + d)
    split = variant != "frobenius"
    CX = [state.C @ X for X in ds.views]
    CZ = [state.C @ Zi if split else None for Zi in state.Zi]
    factor = _view_auxiliary_factor(state.C, state.mu, CFG) if split else None
    XXt = _feature_gram(ds) if variant != "no_smoothing" else None
    for i in range(ds.n_views):
        assert_equivalent(
            update_view_representation(state, ds, i, CX=CX[i], system=y_system(state, i)),
            oracles.dense_view_representation(state, ds, i),
        )
        assert_equivalent(
            update_view_coefficients(state, i, CFG, CZi=CZ[i]),
            oracles.dense_view_coefficients(state, i, CFG, variant),
        )
        assert_equivalent(
            update_view_auxiliary(state, i, CFG, project=False, factor=factor),
            oracles.dense_view_auxiliary(state, i, CFG, variant),
        )
    assert_equivalent(
        update_consensus_coefficients(
            state, ds, CFG, XXt=XXt, sums=consensus_sums(state, ds, CFG, variant)
        ),
        oracles.dense_consensus_coefficients(state, ds, CFG, variant),
    )
    expected_gaps = oracles.dense_constraint_gaps(state, ds, variant)
    expected_objective = oracles.dense_objective_value(state, ds, CFG, variant)
    steps = oracles.dense_multiplier_steps(state, ds, variant)
    # the views' work after C and Z steps the view multipliers and measures
    # the residuals it steps and the objective's terms
    views = after_consensus(state, ds, CFG, variant)
    assert objective_value(state, CFG, views) == pytest.approx(expected_objective, rel=EQUIV_RTOL)
    residuals = _consensus_residuals(state)
    gaps = constraint_gaps(residuals, views)
    update_multipliers(state, CFG, residuals)
    assert gaps.keys() == expected_gaps.keys()
    for key, value in expected_gaps.items():
        assert_equivalent(gaps[key], value)
    for name in ("Gamma", "Lam", "Omega"):
        for actual, expected in zip(getattr(state, name), steps[name]):
            assert_equivalent(actual, expected)
    assert_equivalent(state.Theta, steps["Theta"])
    assert_equivalent(state.Phi, steps["Phi"])


def same_bits(actual, expected):
    """Equal bits, zeros' signs included, and memory order: later products
    and sums see the same operands as the expression's result."""
    assert np.array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()
    assert actual.flags.c_contiguous == expected.flags.c_contiguous
    assert actual.flags.f_contiguous == expected.flags.f_contiguous


def expression_projection(M):
    M = 0.5 * (M + M.T)
    np.maximum(M, 0.0, out=M)
    np.fill_diagonal(M, 0.0)
    return M


@pytest.mark.parametrize("variant", VARIANTS)
def test_in_place_updates_match_their_expression_forms(variant):
    # The updates build their results in arrays they own. Each must give the
    # bits of the expression it replaced, kept here as the reference: the
    # same IEEE operations in the same order (x y = y x, a + b = b + a, and
    # x**2 is np.square). Y^i is C-ordered as set up here and
    # Fortran-ordered as spd_solve returns it in a solve.
    ds = toy_dataset(n=40, v=2, d=9, seed=80)
    n = ds.n_samples
    for layout in (np.ascontiguousarray, np.asfortranarray):
        state = random_state(ds, seed=81)
        state.Y = [layout(Y) for Y in state.Y]
        mu = state.mu
        M = np.random.default_rng(82).standard_normal((n, n))
        same_bits(project_constraints(M.copy()), expression_projection(M.copy()))
        for a, b in [(M, state.C), (M.T, state.C), (state.Y[0], state.Ci[0] @ state.Y[0])]:
            assert solver._squared_distance(a, b) == float(np.sum((a - b) ** 2))

        factor = _view_auxiliary_factor(state.C, mu, CFG) if variant != "frobenius" else None
        CX = [state.C @ X for X in ds.views]
        # the zero C^i of a solve's first Y^i systems among them
        for Ci in (np.zeros((n, n)), *state.Ci):
            system = _add_to_diagonal(gram(np.eye(n) - Ci, 2.0), 16.0 * mu)
            same_bits(solver._representation_system(Ci, mu).result(), cholesky(system))
        for i in range(ds.n_views):
            Ci, X, Y = state.Ci[i], ds.views[i], state.Y[i]
            R = solver._representation_system(Ci, mu).result()
            expected = spd_solve(R, 12.0 * mu * X + 4.0 * mu * CX[i] - 4.0 * state.Gamma[i])
            Y_new = update_view_representation(state, ds, i, CX=CX[i], system=y_system(state, i))
            same_bits(Y_new, expected)
            # C^i through the thin SVD of U (d = 9 at n = 40)
            w = CFG.beta * state.gamma[i] ** CFG.eta
            left = (
                2.0 * (Y @ Y.T) + 2.0 * w * state.C + mu * (state.Zi[i] + 1.0) - state.Lam[i]
                - state.Omega[i][:, None]
            )  # fmt: skip
            CZi = None if variant == "frobenius" else state.C @ state.Zi[i]
            if CZi is not None:
                left = left + 2.0 * CFG.alpha * CZi
            a = 2.0 * (CFG.alpha + w) + mu
            U = np.column_stack([np.sqrt(2.0) * Y, np.full(n, np.sqrt(mu))])
            Q, s, _ = np.linalg.svd(U, full_matrices=False)
            s2 = s * s
            expected = left / a - ((left @ Q) * (s2 / (a * (a + s2)))) @ Q.T
            same_bits(update_view_coefficients(state, i, CFG, CZi=CZi), expected)
            if variant == "frobenius":
                expected = state.Ci[i] + state.Lam[i] / mu
            else:
                rhs = 2.0 * CFG.alpha * (state.C.T @ Ci) + mu * Ci + state.Lam[i]
                expected = spd_apply_left(factor, rhs)
            raw = update_view_auxiliary(state, i, CFG, project=False, factor=factor)
            same_bits(raw, expected)
            projected = update_view_auxiliary(state, i, CFG, factor=factor)
            same_bits(projected, expression_projection(expected))

        XXt = _feature_gram(ds) if variant != "no_smoothing" else None
        sums = consensus_sums(state, ds, CFG, variant)
        if XXt is not None:
            sums.A -= 3.0 * mu * XXt
            sums.B += (mu * XXt).T
        shift = mu
        for g in state.gamma:
            shift += 2.0 * (CFG.beta * g**CFG.eta)
        expected = spd_apply_right(sums.A, spd_inverse_factor(_add_to_diagonal(sums.B, shift)))
        C = update_consensus_coefficients(
            state, ds, CFG, XXt=XXt, sums=consensus_sums(state, ds, CFG, variant)
        )
        same_bits(C, expected)
        same_bits(update_consensus_auxiliary(state, project=False), state.C + state.Theta / mu)

        # the views' steps and measures beside and after the C update
        omegas = [Omega + mu * (Ci.sum(axis=1) - 1.0) for Omega, Ci in zip(state.Omega, state.Ci)]
        fits = [float(np.sum((Y - Ci @ Y) ** 2)) for Y, Ci in zip(state.Y, state.Ci)]
        mismatches = [float(np.sum((state.C - Ci) ** 2)) for Ci in state.Ci]
        if variant == "frobenius":
            penalties = [CFG.alpha * float(np.sum(Ci**2)) for Ci in state.Ci]
        else:
            penalties = [
                CFG.alpha * float(np.sum((Ci - state.C @ Zi) ** 2))
                for Ci, Zi in zip(state.Ci, state.Zi)
            ]
        views = after_consensus(state, ds, CFG, variant)
        for i, view in enumerate(views):
            same_bits(state.Omega[i], omegas[i])
            assert (view.fit, view.J, view.penalty) == (fits[i], mismatches[i], penalties[i])

        C_Z, C_1 = _consensus_residuals(state)
        Theta = state.Theta + mu * C_Z
        Phi = state.Phi + mu * C_1
        update_multipliers(state, CFG, _consensus_residuals(state))
        same_bits(state.Theta, Theta)
        same_bits(state.Phi, Phi)


def state_arrays(state):
    """Every array the state holds."""
    groups = (state.Y, state.Ci, state.Zi, state.Gamma, state.Lam, state.Omega)
    return [*(a for group in groups for a in group), state.C, state.Z, state.Theta, state.Phi,
            state.gamma]  # fmt: skip


@pytest.mark.parametrize("variant", VARIANTS)
def test_updates_write_only_arrays_they_own(variant):
    # An update may rebind state entries, but it writes into no array that
    # the state or its caller still holds: every state array and every
    # product it is handed keeps its bits. The exceptions are the arrays an
    # update's docstring names as consumed: the C update's sums A and B,
    # and the residuals that update_multipliers turns into Theta and Phi.
    ds = toy_dataset(n=40, v=2, d=9, seed=83)
    state = random_state(ds, seed=84)
    smoothing = variant != "no_smoothing"
    split = variant != "frobenius"
    CX = [state.C @ X for X in ds.views] if smoothing else None
    CZ = [state.C @ Zi for Zi in state.Zi] if split else None
    XXt = _feature_gram(ds) if smoothing else None
    factor = _view_auxiliary_factor(state.C, state.mu, CFG) if split else None
    products = [a for a in (*(CX or ()), *(CZ or ()), XXt, factor) if a is not None]

    def holds(update):
        held = [*state_arrays(state), *products]
        saved = [a.copy() for a in held]
        result = update()
        for a, before in zip(held, saved):
            assert np.array_equal(a, before)
        return result

    for i in range(ds.n_views):
        if smoothing:
            holds(
                lambda: update_view_representation(
                    state, ds, i, CX=CX[i], system=y_system(state, i)
                )
            )
            system = solver._representation_system(state.Ci[i], state.mu)
            holds(system.result)
        CZi = CZ[i] if split else None
        holds(lambda: update_view_coefficients(state, i, CFG, CZi=CZi))
        holds(lambda: update_view_auxiliary(state, i, CFG, factor=factor))
        terms = holds(
            lambda: solver._consensus_terms(state, ds, CFG, i, split=split, smoothing=smoothing)
        )
        products += [t for t in terms if t is not None]
    holds(lambda: _view_auxiliary_factor(state.C, state.mu, CFG))
    holds(lambda: project_constraints(state.C))
    sums = holds(lambda: consensus_sums(state, ds, CFG, variant))
    holds(lambda: update_consensus_coefficients(state, ds, CFG, XXt=XXt, sums=sums))
    holds(lambda: update_consensus_auxiliary(state))
    beside = [holds(lambda: solver._view_beside_consensus(state, i)) for i in range(ds.n_views)]
    after = functools.partial(
        solver._view_after_consensus, state, ds, CFG, CX=CX, CZ=CZ, beside=beside
    )
    views = [holds(lambda: after(i)) for i in range(ds.n_views)]
    residuals = holds(lambda: _consensus_residuals(state))
    holds(lambda: constraint_gaps(residuals, views))
    holds(lambda: update_multipliers(state, CFG, residuals))
    J = holds(lambda: view_mismatches(views))
    holds(lambda: update_view_weights(J, CFG))
    holds(lambda: objective_value(state, CFG, views))


@pytest.mark.parametrize("d", [3, 10])
def test_view_coefficients_tiny_alpha_large_mu(d):
    # the MSRC-v1 preset's alpha with a late-run penalty: the regime where a
    # Woodbury difference of the low-rank C^i solve would cancel
    cfg = SolverConfig(alpha=1e-5, beta=0.5, eta=0.5)
    ds = toy_dataset(n=40, v=2, d=d, seed=62)
    state = random_state(ds, cfg, seed=63)
    for mu in (1e4, 1e8):
        state.mu = mu
        for i in range(ds.n_views):
            assert_equivalent(
                update_view_coefficients(state, i, cfg, CZi=state.C @ state.Zi[i]),
                oracles.dense_view_coefficients(state, i, cfg),
            )


@pytest.mark.parametrize("n", [120, 300])
def test_spd_inverse_factor_matches_cholesky_solve(n):
    # The Z^i matrix 2 alpha C^T C + mu I at the first iterations' mu = 1e-6,
    # with a near-block consensus C of rank about 3: condition 1.6e6-1.9e6.
    rng = np.random.default_rng(n)
    labels = rng.integers(0, 3, n)
    C = (labels[:, None] == labels[None, :]) / np.bincount(labels)[labels][:, None]
    C = C + 1e-3 * rng.random((n, n))
    A = _add_to_diagonal(gram(C, 2.0 * CFG.alpha), 1e-6)
    B = rng.standard_normal((n, n))
    factor = sla.cho_factor(A)
    Ri = spd_inverse_factor(A)
    # each product is formed in the memory of the B it is handed
    assert_equivalent(spd_apply_left(Ri, B.copy()), sla.cho_solve(factor, B), rtol=1e-10)
    assert_equivalent(spd_apply_right(B.copy(), Ri), sla.cho_solve(factor, B.T).T, rtol=1e-10)


def test_lapack_routines_match_scipys_bitwise(monkeypatch):
    # gfclust._lapack calls numpy's OpenBLAS; scipy's f2py wrappers call its
    # own. Each operation must give the same bits and memory order as the
    # scipy calls it stands for and surface the same nonzero info. n = 150
    # exceeds the block sizes of the blocked Cholesky and inverse.
    # cholesky and spd_inverse_factor own their A, the two products their B:
    # where that has the layout the routine writes, the result is formed in
    # its memory, as scipy's overwrite_a=1 or overwrite_b=1 call forms it in
    # a Fortran-ordered argument; otherwise the owned matrix is left as it
    # was. spd_solve returns a new matrix, and no operation writes to any
    # other argument.
    rng = np.random.default_rng(51)
    n, k = 150, 23

    def same(ours, theirs):
        assert np.array_equal(ours, theirs)
        assert ours.flags.f_contiguous == theirs.flags.f_contiguous
        assert ours.flags.c_contiguous == theirs.flags.c_contiguous

    def read_only(a):
        a = a.copy(order="K")
        a.flags.writeable = False
        return a

    def fresh(a):
        """A copy of ``a`` in its memory order, read-only if ``a`` is."""
        return a.copy(order="K") if a.flags.writeable else read_only(a)

    def owning(operation, owned, expected, in_place, others=()):
        """operation(owned) gives ``expected``, in the memory of ``owned`` if
        ``in_place``, else leaving ``owned`` as it was; ``others`` are left
        as they were either way."""
        untouched = [*([] if in_place else [owned]), *others]
        saved = [x.copy(order="K") for x in untouched]
        result = operation(owned)
        same(result, expected)
        assert np.shares_memory(result, owned) == in_place
        for x, before in zip(untouched, saved):
            same(x, before)

    M = rng.standard_normal((n, k))
    for a in (M, M.T, np.asfortranarray(M)):
        for outer in (False, True):
            expected = sla.blas.dsyrk(0.7, a.T, trans=int(outer))
            owning(lambda a: gram(a, 0.7, outer), a, expected, in_place=False)
    G = rng.standard_normal((n, n))
    A = np.asfortranarray(G @ G.T + n * np.eye(n))
    B = np.asfortranarray(rng.standard_normal((n, k)))
    R, info = sla.lapack.dpotrf(A.copy(order="F"), lower=0, clean=0, overwrite_a=1)
    assert info == 0
    Ri, info = sla.lapack.dtrtri(R.copy(order="F"), lower=0, overwrite_c=1)
    assert info == 0
    for a, in_place in [(A, True), (np.ascontiguousarray(A), False), (read_only(A), False)]:
        owning(cholesky, fresh(a), R, in_place)
        owning(spd_inverse_factor, fresh(a), Ri, in_place)
    factor = R.copy(order="F")
    for b in (B, np.ascontiguousarray(B)):
        expected_X, info = sla.lapack.dpotrs(R, b, lower=0)
        assert info == 0
        owning(lambda b: spd_solve(factor, b), b, expected_X, False, (factor,))

    def scipy_trmm_twice(b, side, first, second):
        W = b.T.copy(order="F")
        for trans in (first, second):
            W = sla.blas.dtrmm(1.0, Ri, W, side=side, lower=0, trans_a=trans, overwrite_b=1)
        return W.T

    inverse = Ri.copy(order="F")
    # the products write B^T, which is Fortran-ordered where B is C-ordered
    for b, in_place in [(G, True), (G.T, False), (M, True), (read_only(G), False)]:
        owning(lambda b: spd_apply_left(inverse, b), fresh(b),
               scipy_trmm_twice(b, 1, 0, 1), in_place, (inverse,))  # fmt: skip
    for b, in_place in [(G, True), (G.T, False), (M.T.copy(), True), (read_only(G), False)]:
        owning(lambda b: spd_apply_right(b, inverse), fresh(b),
               scipy_trmm_twice(b, 0, 1, 0), in_place, (inverse,))  # fmt: skip
    indefinite = np.diag([4.0, 1.0, -1.0, 2.0])
    assert sla.lapack.dpotrf(indefinite, lower=0, clean=0)[1] == 3
    with pytest.raises(np.linalg.LinAlgError, match="dpotrf: leading minor 3 "):
        spd_solve(cholesky(indefinite), np.eye(4))
    with pytest.raises(np.linalg.LinAlgError, match="dpotrf: leading minor 3 "):
        spd_inverse_factor(indefinite)
    # A Cholesky factor has a positive diagonal, so dtrtri's info is reached
    # by handing spd_inverse_factor a triangle with a zero on its diagonal.
    singular = np.triu(rng.standard_normal((5, 5)))
    singular[3, 3] = 0.0
    assert sla.lapack.dtrtri(singular, lower=0)[1] == 4
    monkeypatch.setattr(_lapack, "cholesky", lambda A: np.asfortranarray(singular))
    with pytest.raises(np.linalg.LinAlgError, match="dtrtri: diagonal entry 4 "):
        spd_inverse_factor(np.eye(5))
    # The solver imports no scipy; a later import of scipy.linalg still works.
    run_in_fresh_interpreter(
        "import sys\n"
        "import numpy as np\n"
        "from gfclust import solver\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        "import scipy.linalg\n"
        "c, lower = scipy.linalg.cho_factor(np.array([[4.0, 2.0], [2.0, 3.0]]))\n"
        "assert not lower and np.allclose(c[0], [2.0, 1.0])\n"
    )


def test_spd_solve_matches_scipy_cholesky_bitwise():
    # cholesky and spd_solve make the same LAPACK calls as cho_factor and
    # cho_solve.
    rng = np.random.default_rng(50)
    M = rng.standard_normal((50, 50))
    A = M @ M.T + 50.0 * np.eye(50)
    B = rng.standard_normal((50, 7))
    assert np.array_equal(spd_solve(cholesky(A), B), sla.cho_solve(sla.cho_factor(A), B))


@pytest.mark.parametrize("variant", VARIANTS)
def test_solve_matches_dense_reference_iterations(variant):
    # Checks that the shared products reach the right updates. View dims 3
    # and 12 at n=40 put one view on each side of the C^i cut-off. mu0 = 1e-2
    # keeps the run out of the small-mu start, where rounding differences of
    # any two orderings (even of the dense reference on inputs perturbed by
    # 1e-15) grow to 1e-7 within 40 iterations; here they stay below 1e-13.
    spec = SyntheticSpec(
        k=2, n_per_cluster=20, subspace_dim=2, view_dims=(3, 12), noise_sigma=0.05, seed=66
    )
    ds = generate_synthetic(spec)
    iterations = 40
    cfg = SolverConfig(alpha=0.5, beta=0.5, eta=0.5, mu0=1e-2, max_iter=iterations)
    out = solve(ds, cfg, variant)
    assert out.iterations == iterations
    state, objectives = oracles.dense_solve(ds, cfg, variant, iterations)
    assert_equivalent(out.consensus_C, state.C, rtol=1e-10)
    for actual, expected in zip(out.view_C, state.Ci):
        assert_equivalent(actual, expected, rtol=1e-10)
    np.testing.assert_allclose(out.gamma, state.gamma, rtol=1e-10)
    np.testing.assert_allclose(out.diagnostics.objective, objectives, rtol=1e-10)
