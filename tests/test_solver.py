import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from gfclust.cli import DEFAULT_ETA_GRID, PRESETS
from gfclust.data import MultiViewDataset, SyntheticSpec, generate_synthetic
from gfclust.solver import (
    VARIANTS,
    Diagnostics,
    SolverConfig,
    SolverNumericalError,
    _add_to_diagonal,
    _feature_couplings,
    _feature_gram,
    _gram,
    _spd_apply_left,
    _spd_apply_right,
    _spd_inverse_factor,
    _split_residuals,
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
    Y = update_view_representation(state, ds, 0, CX=state.C @ ds.views[0])
    np.testing.assert_allclose(Y, (2.0 / 3.0) * ds.views[0], atol=1e-12)


def test_view_representation_stationarity():
    ds = toy_dataset(n=6, v=2, d=4, seed=1)
    state = random_state(ds, seed=2)
    Y = update_view_representation(state, ds, 0, CX=state.C @ ds.views[0])
    assert_stationary(y_subproblem(state, ds, 0), Y)


def test_view_representation_is_local_minimum():
    ds = toy_dataset(n=5, v=2, d=4, seed=3)
    state = random_state(ds, seed=4)
    Y = update_view_representation(state, ds, 1, CX=state.C @ ds.views[1])
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
    factor = _view_auxiliary_factor(state, CFG)
    raw = update_view_auxiliary(state, 0, CFG, project=False, factor=factor)
    np.testing.assert_allclose(raw, state.Ci[0], atol=1e-12)
    projected = update_view_auxiliary(state, 0, CFG, factor=factor)
    np.testing.assert_allclose(projected, project_constraints(state.Ci[0]), atol=1e-12)


def test_view_auxiliary_projection_contract():
    ds = toy_dataset(n=5, v=2, seed=13)
    state = random_state(ds, seed=14)
    Zi = update_view_auxiliary(state, 0, CFG, factor=_view_auxiliary_factor(state, CFG))
    np.testing.assert_array_equal(Zi, Zi.T)
    assert Zi.min() >= 0.0
    np.testing.assert_array_equal(np.diag(Zi), np.zeros(5))


def test_view_auxiliary_stationarity_pre_projection():
    ds = toy_dataset(n=5, v=2, seed=15)
    state = random_state(ds, seed=16)
    factor = _view_auxiliary_factor(state, CFG)
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
    C = update_consensus_coefficients(state, ds, cfg, XXt=_feature_gram(ds))
    XXt = X @ X.T
    ones_mat = np.ones((n, n))
    A = -3.0 * XXt + ones_mat
    B = XXt + np.eye(n) + ones_mat
    expected = np.linalg.solve(B.T, A.T).T
    np.testing.assert_allclose(C, expected, atol=1e-8)


def test_consensus_update_stationarity():
    ds = toy_dataset(n=5, v=2, d=4, seed=19)
    state = random_state(ds, seed=20)
    C = update_consensus_coefficients(state, ds, CFG, XXt=_feature_gram(ds))
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
    C = update_consensus_coefficients(state, ds, CFG, XXt=_feature_gram(ds))
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
    CX = [state.C @ X for X in ds.views]
    update_multipliers(state, CFG, _split_residuals(state), _feature_couplings(state, ds, CX))
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
    CX = [state.C @ X for X in ds.views]
    update_multipliers(state, cfg, _split_residuals(state), _feature_couplings(state, ds, CX))
    assert state.mu == 1.0


def test_omega_update_componentwise():
    ds = toy_dataset(n=4, v=1, seed=33)
    state = feasible_fixed_point_state(ds, CFG)
    delta = 0.25
    state.Ci[0] = state.Ci[0] + delta / 4.0 * np.ones((4, 4))  # rows now sum to 1 + delta
    state.Zi[0] = state.Ci[0].copy()  # keep the split gap at zero
    mu = state.mu
    CX = [state.C @ X for X in ds.views]
    update_multipliers(state, CFG, _split_residuals(state), _feature_couplings(state, ds, CX))
    np.testing.assert_allclose(state.Omega[0], mu * delta * np.ones(4), atol=1e-12)


# ---- view weights ----


def test_weights_uniform_for_equal_mismatches():
    ds = toy_dataset(n=4, v=3, seed=34)
    state = init_state(ds, CFG)
    state.C = np.ones((4, 4))
    state.Ci = [np.zeros((4, 4)) for _ in range(3)]  # all J^i equal
    gamma = update_view_weights(view_mismatches(state), CFG)
    np.testing.assert_array_equal(gamma, np.full(3, 1.0 / 3.0))


def test_weights_hand_values_eta_2():
    ds = toy_dataset(n=2, v=2, seed=35)
    cfg = SolverConfig(alpha=1.0, beta=1.0, eta=2.0)
    state = init_state(ds, cfg)
    state.C = np.zeros((2, 2))
    state.Ci = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[2.0, 0.0], [0.0, 0.0]])]
    np.testing.assert_allclose(view_mismatches(state), [1.0, 4.0])
    gamma = update_view_weights(view_mismatches(state), cfg)
    np.testing.assert_allclose(gamma, [0.8, 0.2], atol=1e-15)


def test_weights_hand_values_eta_half():
    ds = toy_dataset(n=2, v=2, seed=36)
    state = init_state(ds, CFG)  # eta = 0.5 -> exponent 2
    state.C = np.zeros((2, 2))
    state.Ci = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[2.0, 0.0], [0.0, 0.0]])]
    gamma = update_view_weights(view_mismatches(state), CFG)
    np.testing.assert_allclose(gamma, [1.0 / 17.0, 16.0 / 17.0], atol=1e-15)


def test_weights_floor_survives_all_zero_start():
    ds = toy_dataset(n=4, v=2, seed=37)
    state = init_state(ds, CFG)
    gamma = update_view_weights(view_mismatches(state), CFG)
    np.testing.assert_array_equal(gamma, [0.5, 0.5])


def test_weights_simplex_invariant():
    ds = toy_dataset(n=5, v=3, seed=38)
    for seed in range(5):
        state = random_state(ds, seed=seed)
        gamma = update_view_weights(view_mismatches(state), CFG)
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
        gamma = update_view_weights(view_mismatches(state), cfg)
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
    CZ = [state.C @ Zi for Zi in state.Zi]
    assert objective_value(state, ds, CFG, CZ=CZ, J=view_mismatches(state)) == 0.0


def test_objective_self_expression_only():
    ds = toy_dataset(n=4, v=2, seed=42)
    state = init_state(ds, CFG)
    state.Y = [x.copy() for x in ds.views]
    expected = sum(float(np.sum(x**2)) for x in ds.views)
    CZ = [state.C @ Zi for Zi in state.Zi]
    assert objective_value(state, ds, CFG, CZ=CZ, J=view_mismatches(state)) == pytest.approx(
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
    CZ = [state.C @ Zi for Zi in state.Zi]
    assert objective_value(state, ds, CFG, CZ=CZ, J=view_mismatches(state)) == pytest.approx(
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


@pytest.mark.parametrize("variant", VARIANTS)
def test_solve_peak_stays_within_estimate(variant):
    # At n = 150 the n x n arrays dominate the footprint. A solve that kept
    # each iteration's arrays until they were rebound peaked here at 24.4 to
    # 28.4 n^2 doubles, above this bound of 22.5 n^2 for every variant.
    spec = SyntheticSpec(
        k=3, n_per_cluster=50, subspace_dim=3, view_dims=(15, 20, 10), noise_sigma=0.1, seed=7
    )
    ds = generate_synthetic(spec)
    tracemalloc.start()
    try:
        solve(ds, SolverConfig(max_iter=5), variant)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= solve_peak_bytes(150, 3, 45)


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
    from gfclust.solver import _spd_solve

    indefinite = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(SolverNumericalError, match="solve failed"):
        _spd_solve(indefinite, np.eye(2), iteration=3)


def test_spd_inverse_factor_reports_failed_factorization():
    indefinite = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(SolverNumericalError, match="solve failed") as excinfo:
        _spd_inverse_factor(indefinite, iteration=3)
    assert excinfo.value.iteration == 3


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
    CX = [state.C @ X for X in ds.views]
    CZ = [state.C @ Zi for Zi in state.Zi]
    factor = _view_auxiliary_factor(state, CFG)
    for i in range(ds.n_views):
        assert_equivalent(
            update_view_representation(state, ds, i, CX=CX[i]),
            oracles.dense_view_representation(state, ds, i),
        )
        assert_equivalent(
            update_view_coefficients(state, i, CFG, variant, CZi=CZ[i]),
            oracles.dense_view_coefficients(state, i, CFG, variant),
        )
        assert_equivalent(
            update_view_auxiliary(state, i, CFG, variant, project=False, factor=factor),
            oracles.dense_view_auxiliary(state, i, CFG, variant),
        )
    assert_equivalent(
        update_consensus_coefficients(state, ds, CFG, variant, XXt=_feature_gram(ds)),
        oracles.dense_consensus_coefficients(state, ds, CFG, variant),
    )
    residuals = _split_residuals(state)
    couplings = None if variant == "no_smoothing" else _feature_couplings(state, ds, CX)
    gaps = constraint_gaps(residuals, couplings)
    expected_gaps = oracles.dense_constraint_gaps(state, ds, variant)
    assert gaps.keys() == expected_gaps.keys()
    for key, value in expected_gaps.items():
        assert_equivalent(gaps[key], value)
    assert objective_value(
        state, ds, CFG, variant, CZ=CZ, J=view_mismatches(state)
    ) == pytest.approx(oracles.dense_objective_value(state, ds, CFG, variant), rel=EQUIV_RTOL)
    steps = oracles.dense_multiplier_steps(state, ds, variant)
    update_multipliers(state, CFG, residuals, couplings)
    for name in ("Gamma", "Lam", "Omega"):
        for actual, expected in zip(getattr(state, name), steps[name]):
            assert_equivalent(actual, expected)
    assert_equivalent(state.Theta, steps["Theta"])
    assert_equivalent(state.Phi, steps["Phi"])


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
    A = _add_to_diagonal(_gram(C, 2.0 * CFG.alpha), 1e-6)
    B = rng.standard_normal((n, n))
    factor = sla.cho_factor(A)
    Ri = _spd_inverse_factor(A)
    assert_equivalent(_spd_apply_left(Ri, B), sla.cho_solve(factor, B), rtol=1e-10)
    assert_equivalent(_spd_apply_right(B, Ri), sla.cho_solve(factor, B.T).T, rtol=1e-10)


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
