"""ADMM solver that jointly learns per-view reconstruction coefficients and a
consensus coefficient matrix doubling as a low-pass graph filter.

For views X^i the full model alternates closed-form updates of

* smoothed features Y^i      (coupled to the consensus C by 4Y^i = 3X^i + CX^i),
* view coefficients C^i      (self-expression Y^i ~ C^i Y^i plus consensus pull),
* view auxiliaries Z^i       (split copy of C^i carrying the symmetric /
                              nonnegative / zero-diagonal constraints),
* the consensus C and its auxiliary Z,
* Lagrange multipliers and the growing penalty mu,
* adaptive view weights gamma from the mismatches J^i = ||C - C^i||_F^2.

Two ablation variants run through the same ``solve(ds, cfg, variant)``:
``no_smoothing`` fixes Y^i = X^i and drops the smoothing constraint,
``frobenius`` replaces the consensus-filter regularizer on C^i with a plain
squared Frobenius penalty.

All linear systems are symmetric positive definite. The Y^i systems have d_i
right-hand sides and are solved by Cholesky. The n x n systems with n
right-hand sides (Z^i, C, and the C^i of a wide view) are applied as
A^{-1} = Ri Ri^T, where Ri is the inverse of the upper Cholesky factor
(LAPACK dtrtri), by two triangular products (BLAS dtrmm); these run at
about twice the speed of the two triangular solves they replace, with the
same forward error. The updates use the structure of their matrices:

* the C^i right factor is a I + U U^T with U = [sqrt(2) Y^i, sqrt(mu) 1] of
  rank d_i + 1. When 4(d_i + 1) <= n it is inverted through the thin SVD of
  U in O(n^2 d_i), in the form I/a - Q diag(s^2/(a(a+s^2))) Q^T, which does
  not cancel at tiny alpha as a Woodbury difference would; wider views use
  the O(n^3) inverse Cholesky factor, which is cheaper there;
* the Z^i system matrix 2 alpha C^T C + mu I is the same for every view of an
  iteration, so its inverse Cholesky factor is formed once per iteration;
* Gram matrices come from one BLAS syrk call each; sum_i X^i X^i^T is formed
  once per run; C Z^i and C X^i are formed once per view per iteration, C Z^i
  serving both the objective and the next iteration's C^i update, C X^i both
  the coupling residuals and the next iteration's Y^i update; the coupling
  residuals 4Y^i - 3X^i - CX^i and the split and row-sum residuals
  C^i - Z^i, C^i 1 - 1, C - Z and C 1 - 1 serve both the constraint gaps and
  the multipliers; the mismatches J^i serve the view weights, the objective
  and the diagnostics.

The solve is the one producer of these shared products: each update
function takes the products it reads as required arguments, and gets None
for a product its variant does not read.

The solve drops each of these products after its last reader, so that no two
generations of one exist at once: C Z^i and C X^i after view i's C^i and Y^i
updates, the Z^i inverse factor after the view loop, the previous C and Z
once their squared changes are taken, and the residuals after the
multiplier step. ``solve_peak_bytes`` estimates the resulting peak; the
iterates themselves are rebound each iteration and never written in place,
so the returned C^i need no copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dsyrk, dtrmm
from scipy.linalg.lapack import dtrtri

from .data import MultiViewDataset, check_field_types

VARIANT_FULL = "full"
VARIANT_NO_SMOOTHING = "no_smoothing"
VARIANT_FROBENIUS = "frobenius"
VARIANTS = (VARIANT_FULL, VARIANT_NO_SMOOTHING, VARIANT_FROBENIUS)

# Bound on the squared successive changes of C and Z at convergence.
RESID_TOL = 1e-6
# Floor on each J^i in the view-weight update (see update_view_weights).
J_FLOOR = 1e-12
# Bound on |1/(1 - eta)|, the view-weight exponent: J_FLOOR**25 = 1e-300 is
# still a normal double, while for 0.96 < eta < 1.04 J^{1/(1-eta)} under- or
# overflows and every view weight turns NaN.
MAX_WEIGHT_EXPONENT = 25


class SolverNumericalError(RuntimeError):
    """A linear solve failed or an iterate went non-finite.

    Carries the iteration index and the diagnostics recorded so far.
    """

    def __init__(self, message: str, iteration: int = -1, diagnostics=None):
        super().__init__(message)
        self.iteration = iteration
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class SolverConfig:
    """Hyper-parameters and ADMM constants.

    ``eps`` bounds the constraint-gap max-norms at convergence; the squared
    successive changes of C and Z must also settle below ``RESID_TOL``
    before the run stops.
    """

    alpha: float = 0.5
    beta: float = 0.5
    eta: float = 0.5
    mu0: float = 1e-6
    mu_max: float = 1e30
    rho: float = 1.1
    eps: float = 1e-4
    max_iter: int = 1000

    def __post_init__(self):
        check_field_types(self, ValueError)
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if abs(1.0 - self.eta) * MAX_WEIGHT_EXPONENT < 1:
            raise ValueError(
                f"eta must satisfy |1/(1 - eta)| <= {MAX_WEIGHT_EXPONENT}, that is"
                f" |eta - 1| >= {1 / MAX_WEIGHT_EXPONENT:g}, got {self.eta!r}"
            )
        if self.mu0 <= 0 or self.mu_max <= 0 or self.mu0 > self.mu_max:
            raise ValueError("need 0 < mu0 <= mu_max")
        if self.rho < 1:
            raise ValueError("rho must be >= 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not 1 <= self.max_iter <= 10_000:
            raise ValueError("max_iter must be in [1, 1e4]")


@dataclass
class SolverState:
    """All iterates of one run; confined to a single thread."""

    Y: list[np.ndarray]
    Ci: list[np.ndarray]
    Zi: list[np.ndarray]
    Gamma: list[np.ndarray]
    Lam: list[np.ndarray]
    Omega: list[np.ndarray]
    C: np.ndarray
    Z: np.ndarray
    Theta: np.ndarray
    Phi: np.ndarray
    gamma: np.ndarray
    mu: float
    iteration: int = 0


@dataclass
class Diagnostics:
    """Per-iteration residuals, constraint-gap max-norms, and objective trace."""

    residual_C: list[float] = field(default_factory=list)
    residual_Z: list[float] = field(default_factory=list)
    gap_Y: list[float] = field(default_factory=list)
    gap_CiZi: list[float] = field(default_factory=list)
    gap_Ci1: list[float] = field(default_factory=list)
    gap_CZ: list[float] = field(default_factory=list)
    gap_C1: list[float] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    J: list[np.ndarray] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.residual_C)


@dataclass
class SolverOutput:
    consensus_C: np.ndarray
    view_C: list[np.ndarray]
    gamma: np.ndarray
    diagnostics: Diagnostics
    converged: bool
    iterations: int


def _spd_factor(A: np.ndarray, iteration: int = -1):
    """Cholesky factor of a symmetric positive definite A.

    Only the upper triangle of A is read, so A may come straight from
    ``_gram``.
    """
    try:
        return sla.cho_factor(A, check_finite=False)
    except (sla.LinAlgError, ValueError) as exc:
        raise SolverNumericalError(
            f"symmetric positive definite solve failed at iteration {iteration}: {exc}",
            iteration=iteration,
        ) from None


def _spd_solve(A: np.ndarray, B: np.ndarray, iteration: int = -1) -> np.ndarray:
    """Solve A X = B for symmetric positive definite A via Cholesky."""
    return sla.cho_solve(_spd_factor(A, iteration), B, check_finite=False)


def _spd_inverse_factor(A: np.ndarray, iteration: int = -1) -> np.ndarray:
    """Ri = R^{-1} for the upper Cholesky factor R of A, so A^{-1} = Ri Ri^T.

    Only the upper triangle of Ri is meaningful. Applying A^{-1} to n columns
    as two triangular products (dtrmm) costs the same flops as the two
    triangular solves of a Cholesky solve but runs at about twice their
    speed; the inverse itself (dtrtri) is formed once per system.
    """
    c, _ = _spd_factor(A, iteration)
    Ri, info = dtrtri(c, lower=0, overwrite_c=1)
    if info != 0:
        raise SolverNumericalError(
            f"triangular inverse failed at iteration {iteration}: info {info}",
            iteration=iteration,
        )
    return Ri


def _spd_apply_left(Ri: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^{-1} B for Ri from ``_spd_inverse_factor(A)``.

    Computed as (B^T Ri Ri^T)^T: for a C-ordered B, B.T is Fortran-ordered,
    so BLAS gets it without a copy and the result comes back C-ordered.
    """
    W = dtrmm(1.0, Ri, B.T, side=1, lower=0, trans_a=0)
    W = dtrmm(1.0, Ri, W, side=1, lower=0, trans_a=1, overwrite_b=1)
    return W.T


def _spd_apply_right(B: np.ndarray, Ri: np.ndarray) -> np.ndarray:
    """B A^{-1} for Ri from ``_spd_inverse_factor(A)``, computed as
    (Ri Ri^T B^T)^T with the same memory orders as ``_spd_apply_left``."""
    W = dtrmm(1.0, Ri, B.T, side=0, lower=0, trans_a=1)
    W = dtrmm(1.0, Ri, W, side=0, lower=0, trans_a=0, overwrite_b=1)
    return W.T


def _gram(M: np.ndarray, scale: float = 1.0, outer: bool = False) -> np.ndarray:
    """scale * M^T M, or scale * M M^T with ``outer``, by one BLAS syrk call.

    Only the upper triangle is filled (the lower one is zero); every consumer
    is a Cholesky factorization, which reads no more. M.T of a C-ordered M is
    Fortran-ordered, so BLAS gets it without a copy.
    """
    return dsyrk(scale, M.T, trans=int(outer))


def _add_to_diagonal(M: np.ndarray, value: float) -> np.ndarray:
    M[np.diag_indices_from(M)] += value
    return M


def init_state(ds: MultiViewDataset, cfg: SolverConfig) -> SolverState:
    """All matrices zero, uniform view weights, mu = mu0."""
    n = ds.n_samples
    v = ds.n_views
    return SolverState(
        Y=[np.zeros_like(x) for x in ds.views],
        Ci=[np.zeros((n, n)) for _ in range(v)],
        Zi=[np.zeros((n, n)) for _ in range(v)],
        Gamma=[np.zeros_like(x) for x in ds.views],
        Lam=[np.zeros((n, n)) for _ in range(v)],
        Omega=[np.zeros(n) for _ in range(v)],
        C=np.zeros((n, n)),
        Z=np.zeros((n, n)),
        Theta=np.zeros((n, n)),
        Phi=np.zeros(n),
        gamma=np.full(v, 1.0 / v),
        mu=cfg.mu0,
    )


def project_constraints(M: np.ndarray) -> np.ndarray:
    """Symmetrize, clamp at zero, zero the diagonal - in that fixed order.

    This is the prescribed sequential projection, not the Euclidean projection
    onto the intersection of the three constraint sets.
    """
    M = 0.5 * (M + M.T)
    M = np.maximum(M, 0.0)
    np.fill_diagonal(M, 0.0)
    return M


def update_view_representation(
    state: SolverState, ds: MultiViewDataset, i: int, *, CX: np.ndarray
) -> np.ndarray:
    """Closed-form smoothed features for view i.

    Minimizes ||Y - C^i Y||_F^2 + mu/2 ||4Y - 3X^i - CX^i + Gamma^i/mu||_F^2;
    the normal equations [2(I-C^i)^T(I-C^i) + 16 mu I] Y = 12 mu X^i
    + 4 mu C X^i - 4 Gamma^i are solved by Cholesky. ``CX`` is the product
    C X^i.
    """
    n = ds.n_samples
    X = ds.views[i]
    lhs = _add_to_diagonal(_gram(np.eye(n) - state.Ci[i], 2.0), 16.0 * state.mu)
    rhs = 12.0 * state.mu * X + 4.0 * state.mu * CX - 4.0 * state.Gamma[i]
    return _spd_solve(lhs, rhs, state.iteration)


def update_view_coefficients(
    state: SolverState,
    i: int,
    cfg: SolverConfig,
    variant: str = VARIANT_FULL,
    *,
    CZi: np.ndarray | None,
) -> np.ndarray:
    """Closed-form view coefficient matrix C^i = L R^{-1}.

    The left factor L collects 2 Y^i Y^i^T, the consensus pull, the split
    copy Z^i, and the multiplier corrections. The ``frobenius`` variant drops
    the alpha C Z^i coupling from it (its alpha term is a plain ridge
    penalty); ``no_smoothing`` uses the same formula with Y^i = X^i, which
    the state already holds. ``CZi`` is the product C Z^i, None for
    ``frobenius``.

    The right factor 2 Y^i Y^i^T + 2(alpha + beta gamma_i^eta) I
    + mu (I + 11^T) is a I + U U^T with U = [sqrt(2) Y^i, sqrt(mu) 1] of
    d_i + 1 columns. When 4(d_i + 1) <= n the thin SVD U = Q S W^T gives
    R^{-1} = I/a - Q diag(s^2 / (a(a + s^2))) Q^T in O(n^2 d_i); otherwise
    L R^{-1} is applied through the inverse Cholesky factor of R in O(n^3).
    """
    n = state.C.shape[0]
    Y = state.Y[i]
    mu = state.mu
    w = cfg.beta * state.gamma[i] ** cfg.eta
    left = 2.0 * (Y @ Y.T) + 2.0 * w * state.C + mu * (state.Zi[i] + 1.0)
    left -= state.Lam[i]
    left -= state.Omega[i][:, None]
    if variant != VARIANT_FROBENIUS:
        left += 2.0 * cfg.alpha * CZi
    a = 2.0 * (cfg.alpha + w) + mu
    U = np.column_stack([np.sqrt(2.0) * Y, np.full(n, np.sqrt(mu))])
    if 4 * U.shape[1] > n:
        right = _add_to_diagonal(_gram(U, outer=True), a)
        return _spd_apply_right(left, _spd_inverse_factor(right, state.iteration))
    try:
        Q, s, _ = np.linalg.svd(U, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SolverNumericalError(
            f"SVD failed at iteration {state.iteration}: {exc}", iteration=state.iteration
        ) from None
    s2 = s * s
    return left / a - ((left @ Q) * (s2 / (a * (a + s2)))) @ Q.T


def _view_auxiliary_factor(state: SolverState, cfg: SolverConfig) -> np.ndarray:
    """Inverse Cholesky factor of 2 alpha C^T C + mu I, the Z^i system matrix.

    It depends on C and mu only, so one factor serves every view of an
    iteration.
    """
    M = _add_to_diagonal(_gram(state.C, 2.0 * cfg.alpha), state.mu)
    return _spd_inverse_factor(M, state.iteration)


def update_view_auxiliary(
    state: SolverState,
    i: int,
    cfg: SolverConfig,
    variant: str = VARIANT_FULL,
    project: bool = True,
    *,
    factor: np.ndarray | None,
) -> np.ndarray:
    """Auxiliary Z^i: linear solve (or multiplier shift) then constraint projection.

    Full/no-smoothing: solve (2 alpha C^T C + mu I) Z = 2 alpha C^T C^i
    + mu C^i + Lam^i against ``factor`` (from ``_view_auxiliary_factor``).
    Frobenius drops the data term, leaving Z = C^i + Lam^i/mu, and gets None
    for ``factor``. ``project=False`` returns the pre-projection
    solution, which is the stationary point of the quadratic subproblem.
    """
    if variant == VARIANT_FROBENIUS:
        Z = state.Ci[i] + state.Lam[i] / state.mu
    else:
        rhs = 2.0 * cfg.alpha * (state.C.T @ state.Ci[i]) + state.mu * state.Ci[i] + state.Lam[i]
        Z = _spd_apply_left(factor, rhs)
    return project_constraints(Z) if project else Z


def _feature_gram(ds: MultiViewDataset) -> np.ndarray:
    """Sum over views of X^i X^i^T, constant for a whole run."""
    return sum(X @ X.T for X in ds.views)


def update_consensus_coefficients(
    state: SolverState,
    ds: MultiViewDataset,
    cfg: SolverConfig,
    variant: str = VARIANT_FULL,
    *,
    XXt: np.ndarray | None,
) -> np.ndarray:
    """Closed-form consensus C = A B^{-1}, through the inverse Cholesky factor
    of the SPD matrix B.

    A sums per-view couplings (split copies, weighted view coefficients, and
    for smoothing variants the feature-coupling terms) plus the consensus
    auxiliary and multiplier corrections; B is the matching Gram-plus-shift
    right factor. ``no_smoothing`` drops the feature-coupling terms,
    ``frobenius`` drops the alpha terms. ``XXt`` is ``_feature_gram(ds)``,
    None for ``no_smoothing``.
    """
    n = ds.n_samples
    mu = state.mu
    A = mu * (state.Z + 1.0) - state.Theta - state.Phi[:, None]
    B = np.full((n, n), mu)
    shift = mu
    for i in range(ds.n_views):
        w = cfg.beta * state.gamma[i] ** cfg.eta
        A += 2.0 * w * state.Ci[i]
        shift += 2.0 * w
        if variant != VARIANT_FROBENIUS:
            A += 2.0 * cfg.alpha * (state.Ci[i] @ state.Zi[i].T)
            B += _gram(state.Zi[i], 2.0 * cfg.alpha, outer=True)
        if variant != VARIANT_NO_SMOOTHING:
            A += (4.0 * mu * state.Y[i] + state.Gamma[i]) @ ds.views[i].T
    if variant != VARIANT_NO_SMOOTHING:
        A -= 3.0 * mu * XXt
        B += mu * XXt
    _add_to_diagonal(B, shift)
    return _spd_apply_right(A, _spd_inverse_factor(B, state.iteration))


def update_consensus_auxiliary(state: SolverState, project: bool = True) -> np.ndarray:
    """Auxiliary Z = C + Theta/mu, then the constraint projection."""
    Z = state.C + state.Theta / state.mu
    return project_constraints(Z) if project else Z


def _feature_couplings(
    state: SolverState, ds: MultiViewDataset, CX: list[np.ndarray]
) -> list[np.ndarray]:
    """Per-view feature-coupling residuals 4Y^i - 3X^i - CX^i. ``CX`` lists
    the products C X^i."""
    return [4.0 * Y - 3.0 * X - CXi for Y, X, CXi in zip(state.Y, ds.views, CX)]


def _split_residuals(state: SolverState):
    """Residuals of the split and row-sum constraints: C^i - Z^i and
    C^i 1 - 1 per view, then C - Z and C 1 - 1."""
    return (
        [Ci - Zi for Ci, Zi in zip(state.Ci, state.Zi)],
        [Ci.sum(axis=1) - 1.0 for Ci in state.Ci],
        state.C - state.Z,
        state.C.sum(axis=1) - 1.0,
    )


def constraint_gaps(
    residuals: tuple, couplings: list[np.ndarray] | None
) -> dict[str, float]:
    """Max-norms of all coupling-constraint violations.

    ``residuals`` is ``_split_residuals`` and ``couplings`` is
    ``_feature_couplings`` of the current state. ``couplings`` is None for
    the no-smoothing variant, whose model has no feature-coupling
    constraint; gap_Y is then reported as 0.
    """
    gap_Y = 0.0
    if couplings is not None:
        gap_Y = max(float(np.abs(coupling).max()) for coupling in couplings)
    Ci_Zi, Ci_1, C_Z, C_1 = residuals
    gap_CiZi = 0.0
    gap_Ci1 = 0.0
    for split, rows in zip(Ci_Zi, Ci_1):
        gap_CiZi = max(gap_CiZi, float(np.abs(split).max()))
        gap_Ci1 = max(gap_Ci1, float(np.abs(rows).max()))
    return {
        "gap_Y": gap_Y,
        "gap_CiZi": gap_CiZi,
        "gap_Ci1": gap_Ci1,
        "gap_CZ": float(np.abs(C_Z).max()),
        "gap_C1": float(np.abs(C_1).max()),
    }


def update_multipliers(
    state: SolverState,
    cfg: SolverConfig,
    residuals: tuple,
    couplings: list[np.ndarray] | None,
) -> SolverState:
    """Ascend all multipliers with the current mu, then grow mu.

    The multiplier steps use the mu that produced the current iterates; only
    afterwards is mu scaled to min(mu_max, rho * mu). ``residuals`` is
    ``_split_residuals`` and ``couplings`` is ``_feature_couplings`` of the
    current state, None for the no-smoothing variant, which has no Gamma^i
    to step.
    """
    mu = state.mu
    if couplings is not None:
        for i, coupling in enumerate(couplings):
            state.Gamma[i] = state.Gamma[i] + mu * coupling
    Ci_Zi, Ci_1, C_Z, C_1 = residuals
    for i in range(len(Ci_Zi)):
        state.Lam[i] = state.Lam[i] + mu * Ci_Zi[i]
        state.Omega[i] = state.Omega[i] + mu * Ci_1[i]
    state.Theta = state.Theta + mu * C_Z
    state.Phi = state.Phi + mu * C_1
    state.mu = min(cfg.mu_max, cfg.rho * mu)
    return state


def view_mismatches(state: SolverState) -> np.ndarray:
    """J^i = ||C - C^i||_F^2 for every view."""
    return np.array([float(np.sum((state.C - Ci) ** 2)) for Ci in state.Ci])


def update_view_weights(J: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """Closed-form simplex weights gamma_i proportional to J_i^{1/(1-eta)},
    for the mismatches J = ``view_mismatches(state)``.

    Each J^i is floored at J_FLOOR before exponentiation so the first
    iteration (all J^i = 0) yields uniform weights instead of 0 to a negative
    power.
    """
    J = np.maximum(J, J_FLOOR)
    powered = J ** (1.0 / (1.0 - cfg.eta))
    return powered / powered.sum()


def objective_value(
    state: SolverState,
    ds: MultiViewDataset,
    cfg: SolverConfig,
    variant: str = VARIANT_FULL,
    *,
    CZ: list[np.ndarray] | None,
    J: np.ndarray,
) -> float:
    """Model objective at the current iterates, using the split form C Z^i of
    the consensus-filter regularizer. ``CZ`` lists the products C Z^i, which
    ``frobenius`` does not read, and ``J`` is ``view_mismatches(state)``."""
    total = 0.0
    for i in range(ds.n_views):
        w = cfg.beta * state.gamma[i] ** cfg.eta
        total += float(np.sum((state.Y[i] - state.Ci[i] @ state.Y[i]) ** 2))
        if variant == VARIANT_FROBENIUS:
            total += cfg.alpha * float(np.sum(state.Ci[i] ** 2))
        else:
            total += cfg.alpha * float(np.sum((state.Ci[i] - CZ[i]) ** 2))
        total += w * J[i]
    return total


def _check_finite(state: SolverState, diagnostics: Diagnostics) -> None:
    iterates = [state.C, state.Z, state.Theta, state.Phi, state.gamma]
    iterates += state.Y + state.Ci + state.Zi + state.Gamma + state.Lam + state.Omega
    for arr in iterates:
        if not np.all(np.isfinite(arr)):
            raise SolverNumericalError(
                f"non-finite iterate at iteration {state.iteration}",
                iteration=state.iteration,
                diagnostics=diagnostics,
            )


def solve_peak_bytes(n_samples: int, n_views: int, total_dim: int) -> int:
    """Estimated peak bytes a solve allocates for n samples, v views and
    total_dim = sum_i d_i: 8 [(4v + 9) n^2 + 5 n sum_i d_i].

    The peak falls in the C^i update of an iteration's first view. Live then
    are 4v + 5 n x n arrays: C^i, Z^i, Lam^i and C Z^i of every view, C, Z,
    Theta, sum_i X^i X^i^T and the Z^i inverse factor; about four more are
    the update's temporaries. The n x d_i arrays (Y^i, Gamma^i, C X^i and the
    thin-SVD factors) make up the second term. Fitted to the tracemalloc
    peaks of all three variants from n=60 to n=300 and v=2 to v=6: it bounds
    each from above, the full variant's within 8 %.
    """
    n = n_samples
    return 8 * ((4 * n_views + 9) * n * n + 5 * n * total_dim)


def solve(
    ds: MultiViewDataset, cfg: SolverConfig, variant: str = VARIANT_FULL, callback=None
) -> SolverOutput:
    """Run ``variant`` (one of VARIANTS) to convergence or cfg.max_iter.

    One iteration updates, in order: per view Y^i, C^i, Z^i (views processed
    sequentially against the previous iteration's consensus), then C, Z, the
    multipliers with the current mu, mu itself, and finally the view weights.
    The run stops once every constraint-gap max-norm is <= cfg.eps and the
    squared successive changes of C and Z are <= RESID_TOL. The optional
    ``callback(state)`` fires after each completed iteration.

    ``no_smoothing`` pins Y^i to X^i, with no feature-coupling constraint or
    Gamma^i multiplier. ``frobenius`` puts a plain ridge penalty
    alpha ||C^i||_F^2 in place of the consensus-filter regularizer, so Z^i is
    the projected multiplier shift of C^i.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    state = init_state(ds, cfg)
    if variant == VARIANT_NO_SMOOTHING:
        state.Y = [x.copy() for x in ds.views]
    diagnostics = Diagnostics()
    converged = False
    smoothing = variant != VARIANT_NO_SMOOTHING
    split = variant != VARIANT_FROBENIUS
    XXt = _feature_gram(ds) if smoothing else None
    # C Z^i and C X^i of the previous iteration's end (of the zero start
    # before the first): C and Z^i are unchanged until the C^i and Y^i
    # updates of view i have used them. Every n x n temporary of an iteration
    # is dropped after its last reader so that the solve's peak stays within
    # solve_peak_bytes.
    CZ = [state.C @ Zi if split else None for Zi in state.Zi]
    CX = [state.C @ X for X in ds.views] if smoothing else None
    for iteration in range(1, cfg.max_iter + 1):
        state.iteration = iteration
        C_prev = state.C
        Z_prev = state.Z
        factor = _view_auxiliary_factor(state, cfg) if split else None
        for i in range(ds.n_views):
            if smoothing:
                state.Y[i] = update_view_representation(state, ds, i, CX=CX[i])
                CX[i] = None
            state.Ci[i] = update_view_coefficients(state, i, cfg, variant, CZi=CZ[i])
            CZ[i] = None
            state.Zi[i] = update_view_auxiliary(state, i, cfg, variant, factor=factor)
        del factor
        state.C = update_consensus_coefficients(state, ds, cfg, variant, XXt=XXt)
        state.Z = update_consensus_auxiliary(state)
        residual_C = float(np.sum((state.C - C_prev) ** 2))
        residual_Z = float(np.sum((state.Z - Z_prev) ** 2))
        del C_prev, Z_prev
        couplings = None
        if smoothing:
            CX = [state.C @ X for X in ds.views]
            couplings = _feature_couplings(state, ds, CX)
        residuals = _split_residuals(state)
        gaps = constraint_gaps(residuals, couplings)
        update_multipliers(state, cfg, residuals, couplings)
        del couplings, residuals
        J = view_mismatches(state)
        state.gamma = update_view_weights(J, cfg)
        CZ = [state.C @ Zi if split else None for Zi in state.Zi]

        diagnostics.residual_C.append(residual_C)
        diagnostics.residual_Z.append(residual_Z)
        for key, value in gaps.items():
            getattr(diagnostics, key).append(value)
        diagnostics.objective.append(objective_value(state, ds, cfg, variant, CZ=CZ, J=J))
        diagnostics.J.append(J)

        _check_finite(state, diagnostics)
        if callback is not None:
            callback(state)

        if (
            max(gaps.values()) <= cfg.eps
            and diagnostics.residual_C[-1] <= RESID_TOL
            and diagnostics.residual_Z[-1] <= RESID_TOL
        ):
            converged = True
            break
    return SolverOutput(
        consensus_C=state.C,
        view_C=state.Ci,
        gamma=state.gamma,
        diagnostics=diagnostics,
        converged=converged,
        iterations=state.iteration,
    )
