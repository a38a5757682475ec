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

All linear systems are symmetric positive definite (SPD), and ``_lapack``
holds every operation on them: the Y^i systems have d_i right-hand sides and
are solved by Cholesky (``cholesky``, then ``spd_solve``); the n x n
systems with n right-hand sides (Z^i, C, and the C^i of a wide view) are
applied through the inverse Cholesky factor (``spd_inverse_factor``,
``spd_apply_left``, ``spd_apply_right``), with the same forward error at
about twice the speed of two triangular solves. A failed factorization raises
``numpy.linalg.LinAlgError`` there, and ``solve`` turns it into a
``SolverNumericalError`` naming the iteration. The updates use the structure
of their matrices:

* the C^i right factor is a I + U U^T with U = [sqrt(2) Y^i, sqrt(mu) 1] of
  rank d_i + 1. When 4(d_i + 1) <= n it is inverted through the thin SVD of
  U in O(n^2 d_i), in the form I/a - Q diag(s^2/(a(a+s^2))) Q^T, which does
  not cancel at tiny alpha as a Woodbury difference would; wider views use
  the O(n^3) inverse Cholesky factor, which is cheaper there;
* the Z^i system matrix 2 alpha C^T C + mu I is the same for every view of an
  iteration, so its inverse Cholesky factor is formed once per iteration;
* Gram matrices come from one BLAS syrk call each (``gram``);
  sum_i X^i X^i^T is formed once per run; C Z^i and C X^i are formed once
  per view per iteration, C Z^i serving both the objective and the next
  iteration's C^i update, C X^i both the coupling residual and the next
  iteration's Y^i update; each view's coupling residual 4Y^i - 3X^i - CX^i,
  split residual C^i - Z^i and row-sum residual C^i 1 - 1 give their gaps
  and are stepped into that view's multiplier as they are formed, and the
  residuals C - Z and C 1 - 1 serve both the gaps and the consensus
  multipliers; the mismatches J^i serve the view weights, the objective and
  the diagnostics.

The solve is the one producer of these shared products, and the one place
that maps a variant to them: each update function takes the products it
reads as required arguments, and a None product means that the variant
lacks the terms that read it.

The solve drops each of these products after its last reader, so that no two
generations of one exist at once: C Z^i and C X^i after view i's C^i and Y^i
updates, the old C^i and Z^i before their successors are built, view i's
terms of the C update once folded, the sums of the C update once C is
formed, the Z^i inverse factor after the first per-view phase, the previous
C and Z once their squared changes are taken, and each residual after its
multiplier step. Each update builds its result in arrays it owns: it sums
its terms in place into one temporary or into a product it formed, and
hands the matrices it no longer reads (the system matrices of Y^i, C^i, Z^i
and C, the Z^i right-hand side, the C^i left factor and the C update's A)
to the ``_lapack`` routine that owns them, which forms its result in their
memory instead of a copy. So the C update consumes the sums A and B, and
``update_multipliers`` the consensus residuals, which become Theta and Phi.
``solve_peak_bytes`` estimates the resulting peak; the iterates themselves
are rebound each iteration and never written in place once stored, so the
returned C^i need no copy.

The views are coupled only through the consensus, so each iteration runs in
three dispatches of ``_run_views``, which may share the views' work with one
worker thread; the results are bitwise those of one thread. README "Two
threads per iteration" tells how.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._lapack import (
    blas_threads,
    cholesky,
    gram,
    spd_apply_left,
    spd_apply_right,
    spd_inverse_factor,
    spd_solve,
)
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
    """All iterates of one run.

    In each of an iteration's three dispatches of ``_run_views``, the thread
    that takes view i rebinds only view i's entries: of Y, Ci and Zi in the
    first, of Lam and Omega in the second, of Gamma in the third. The shared
    work, on the calling thread, rebinds only C in the second and Z in the
    third. Each thread reads only what no other thread writes in that
    dispatch; outside the dispatches one thread owns the state.
    """

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


def _add_to_diagonal(M: np.ndarray, value: float) -> np.ndarray:
    diagonal = np.einsum("ii->i", M)
    diagonal += value
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
    M = np.add(M, M.T)
    M *= 0.5
    np.maximum(M, 0.0, out=M)
    np.fill_diagonal(M, 0.0)
    return M


def _squared_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_F^2, summed as np.sum((a - b) ** 2) sums it, in one
    temporary."""
    d = np.subtract(a, b)
    np.square(d, out=d)
    return float(np.sum(d))


def _view_weight(cfg: SolverConfig, gamma_i: float) -> float:
    """beta gamma_i^eta, the weight of view i's mismatch ||C - C^i||_F^2."""
    return cfg.beta * gamma_i**cfg.eta


class _HeldWork:
    """Work for iteration k + 1 that iteration k forms, one step at a time:
    ``first()``, then each of ``then`` on the result of the step before. It
    holds the next Z^i factor and each view's next Y^i system. A LinAlgError
    from a step is held and no later step runs; ``result`` raises it, so the
    error is that of the iteration the work serves, and a solve that stops
    first never raises it."""

    def __init__(self, first, *then):
        self._steps = [first, *then]
        self._result = ()  # the last step's result, as the next step's arguments
        self._error = None

    def step(self) -> bool:
        """Take the next step, if one is left; return whether one is left
        after it."""
        if self._steps:
            try:
                self._result = (self._steps.pop(0)(*self._result),)
            except np.linalg.LinAlgError as exc:
                self._error = exc
                self._steps.clear()
                self._result = ()
        return bool(self._steps)

    def result(self):
        """The last step's result, after taking the steps left; raises the
        held error if a step failed."""
        while self.step():
            pass
        if self._error is not None:
            raise self._error
        return self._result[0]


def _representation_matrix(Ci: np.ndarray, mu: float) -> np.ndarray:
    """The Y^i system matrix 2(I - C^i)^T(I - C^i) + 16 mu I."""
    # I - C^i as 0 - C^i with 1 added on the diagonal: the same bits
    I_minus_Ci = _add_to_diagonal(np.subtract(0.0, Ci), 1.0)
    return _add_to_diagonal(gram(I_minus_Ci, 2.0), 16.0 * mu)


def _representation_system(Ci: np.ndarray, mu: float) -> _HeldWork:
    """The Y^i system at C^i and mu as held work: the matrix, then its
    Cholesky factor in place of it."""
    return _HeldWork(functools.partial(_representation_matrix, Ci, mu), cholesky)


def update_view_representation(
    state: SolverState,
    ds: MultiViewDataset,
    i: int,
    *,
    CX: np.ndarray,
    system: _HeldWork,
) -> np.ndarray:
    """Closed-form smoothed features for view i.

    Minimizes ||Y - C^i Y||_F^2 + mu/2 ||4Y - 3X^i - CX^i + Gamma^i/mu||_F^2;
    the normal equations [2(I-C^i)^T(I-C^i) + 16 mu I] Y = 12 mu X^i
    + 4 mu C X^i - 4 Gamma^i are solved by Cholesky. ``CX`` is the product
    C X^i. ``system`` is the ``_representation_system`` at the state's C^i
    and mu, whose steps left are taken here.
    """
    mu = state.mu
    rhs = np.multiply(12.0 * mu, ds.views[i])
    term = np.multiply(4.0 * mu, CX)
    rhs += term
    np.multiply(4.0, state.Gamma[i], out=term)
    rhs -= term
    del term
    return spd_solve(system.result(), rhs)


def update_view_coefficients(
    state: SolverState, i: int, cfg: SolverConfig, *, CZi: np.ndarray | None
) -> np.ndarray:
    """Closed-form view coefficient matrix C^i = L R^{-1}.

    The left factor L collects 2 Y^i Y^i^T, the consensus pull, the split
    copy Z^i, the multiplier corrections and the alpha C Z^i coupling.
    ``CZi`` is the product C Z^i, None for the ``frobenius`` variant, which
    lacks the coupling (its alpha term is a plain ridge penalty);
    ``no_smoothing`` uses the same formula with Y^i = X^i, which the state
    already holds.

    The right factor 2 Y^i Y^i^T + 2(alpha + beta gamma_i^eta) I
    + mu (I + 11^T) is a I + U U^T with U = [sqrt(2) Y^i, sqrt(mu) 1] of
    d_i + 1 columns. When 4(d_i + 1) <= n the thin SVD U = Q S W^T gives
    R^{-1} = I/a - Q diag(s^2 / (a(a + s^2))) Q^T in O(n^2 d_i); otherwise
    L R^{-1} is applied through the inverse Cholesky factor of R in O(n^3).
    """
    Y = state.Y[i]
    n, d = Y.shape
    mu = state.mu
    w = _view_weight(cfg, state.gamma[i])
    # left = 2 Y Y^T + 2w C + mu (Z^i + 1) - Lam^i - Omega^i 1^T [+ 2 alpha C Z^i],
    # summed in that order through one reused temporary
    left = Y @ Y.T
    left *= 2.0
    term = np.multiply(2.0 * w, state.C)
    left += term
    np.add(state.Zi[i], 1.0, out=term)
    term *= mu
    left += term
    left -= state.Lam[i]
    left -= state.Omega[i][:, None]
    if CZi is not None:
        np.multiply(2.0 * cfg.alpha, CZi, out=term)
        left += term
    del term
    a = 2.0 * (cfg.alpha + w) + mu
    U = np.empty((n, d + 1))
    np.multiply(np.sqrt(2.0), Y, out=U[:, :d])
    U[:, d] = np.sqrt(mu)
    if 4 * U.shape[1] > n:
        factor = spd_inverse_factor(_add_to_diagonal(gram(U, outer=True), a))
        return spd_apply_right(left, factor)
    Q, s, _ = np.linalg.svd(U, full_matrices=False)
    s2 = s * s
    correction = ((left @ Q) * (s2 / (a * (a + s2)))) @ Q.T
    left /= a
    left -= correction
    return left


def _view_auxiliary_factor(C: np.ndarray, mu: float, cfg: SolverConfig) -> np.ndarray:
    """Inverse Cholesky factor of 2 alpha C^T C + mu I, the Z^i system matrix.

    It depends on C and mu only, so one factor serves every view of an
    iteration, and the solve forms it as soon as the previous iteration's C
    and the grown mu are known.
    """
    return spd_inverse_factor(_add_to_diagonal(gram(C, 2.0 * cfg.alpha), mu))


def update_view_auxiliary(
    state: SolverState,
    i: int,
    cfg: SolverConfig,
    project: bool = True,
    *,
    factor: np.ndarray | None,
) -> np.ndarray:
    """Auxiliary Z^i: linear solve (or multiplier shift) then constraint projection.

    Solves (2 alpha C^T C + mu I) Z = 2 alpha C^T C^i + mu C^i + Lam^i
    against ``factor`` (from ``_view_auxiliary_factor``). ``factor`` is None
    for the ``frobenius`` variant, which lacks the data term, leaving
    Z = C^i + Lam^i/mu. ``project=False`` returns the pre-projection
    solution, which is the stationary point of the quadratic subproblem.
    """
    if factor is None:
        Z = state.Lam[i] / state.mu
        Z += state.Ci[i]
    else:
        # the right-hand side, summed in that order in the product's memory,
        # in which spd_apply_left also forms Z
        Z = state.C.T @ state.Ci[i]
        Z *= 2.0 * cfg.alpha
        Z += state.mu * state.Ci[i]
        Z += state.Lam[i]
        Z = spd_apply_left(factor, Z)
    return project_constraints(Z) if project else Z


def _feature_gram(ds: MultiViewDataset) -> np.ndarray:
    """Sum over views of X^i X^i^T, constant for a whole run."""
    return sum(X @ X.T for X in ds.views)


def update_consensus_coefficients(
    state: SolverState,
    ds: MultiViewDataset,
    cfg: SolverConfig,
    *,
    XXt: np.ndarray | None,
    sums: _ConsensusSums,
) -> np.ndarray:
    """Closed-form consensus C = A B^{-1}, through the inverse Cholesky factor
    of the SPD matrix B.

    A sums per-view couplings (split copies, weighted view coefficients, and
    for smoothing variants the feature-coupling terms) plus the consensus
    auxiliary and multiplier corrections; B is the matching Gram-plus-shift
    right factor. ``sums`` holds A and B as every view has added into them
    (``_ConsensusSums``); this adds the terms the views share, in place, and
    applies B^{-1}, so that B's memory holds the inverse factor and A's the
    returned C. ``XXt`` is ``_feature_gram(ds)``, None for the
    ``no_smoothing`` variant, which lacks the feature-coupling terms.
    """
    mu = state.mu
    A, B = sums.A, sums.B
    shift = mu
    for i in range(ds.n_views):
        shift += 2.0 * _view_weight(cfg, state.gamma[i])
    if XXt is not None:
        term = np.multiply(3.0 * mu, XXt)
        A -= term
        np.multiply(mu, XXt, out=term)
        # XXt is exactly symmetric, and its transpose has B's Fortran order
        B += term.T
        del term
    _add_to_diagonal(B, shift)
    return spd_apply_right(A, spd_inverse_factor(B))


def _consensus_terms(
    state: SolverState,
    ds: MultiViewDataset,
    cfg: SolverConfig,
    i: int,
    *,
    split: bool,
    smoothing: bool,
) -> tuple:
    """View i's terms of the C update from its new iterates: 2 alpha Z^i Z^i^T
    for B and 2 alpha C^i Z^i^T for A if ``split`` (the model has the split
    C Z^i, which ``frobenius`` lacks), (4 mu Y^i + Gamma^i) X^i^T for A if
    ``smoothing`` (which ``no_smoothing`` lacks), each None otherwise."""
    ZZt = CZt = YXt = None
    if split:
        ZZt = gram(state.Zi[i], 2.0 * cfg.alpha, outer=True)
        CZt = state.Ci[i] @ state.Zi[i].T
        CZt *= 2.0 * cfg.alpha
    if smoothing:
        YXt = (4.0 * state.mu * state.Y[i] + state.Gamma[i]) @ ds.views[i].T
    return ZZt, CZt, YXt


@dataclass
class _ConsensusSums:
    """The view sums of the C update's A and B.

    ``add`` is the fold of ``_run_views``, which calls it in view order, so
    the floating-point sequence into each sum is that of one loop over the
    views, whichever thread runs each view.
    """

    state: SolverState
    cfg: SolverConfig
    A: np.ndarray | None = None
    B: np.ndarray | None = None

    def add(self, i: int, terms: tuple) -> None:
        """Add view i's ``_consensus_terms``: 2 alpha Z^i Z^i^T into B, then
        2w C^i, 2 alpha C^i Z^i^T and (4 mu Y^i + Gamma^i) X^i^T into A."""
        state = self.state
        ZZt, CZt, YXt = terms
        # View 0 creates the sums in place, B in the Fortran order of Z^i Z^i^T
        # and of the factor's copy, and 2w C^i reuses the buffer of Z^i Z^i^T,
        # transposed to A's C order: the fold adds no n x n temporary.
        if i == 0:
            self.B = np.full(state.C.shape, state.mu, order="F")
            self.A = np.add(state.Z, 1.0)
            self.A *= state.mu
            self.A -= state.Theta
            self.A -= state.Phi[:, None]
        if ZZt is not None:
            self.B += ZZt
        w = _view_weight(self.cfg, state.gamma[i])
        self.A += np.multiply(2.0 * w, state.Ci[i], out=None if ZZt is None else ZZt.T)
        if CZt is not None:
            self.A += CZt
        if YXt is not None:
            self.A += YXt


def update_consensus_auxiliary(state: SolverState, project: bool = True) -> np.ndarray:
    """Auxiliary Z = C + Theta/mu, then the constraint projection."""
    Z = state.Theta / state.mu
    Z += state.C
    return project_constraints(Z) if project else Z


class _ViewMeasures(NamedTuple):
    """One view's scalars from after the C and Z updates, for the serial
    folds: the max-norms of its coupling (0 for ``no_smoothing``), split and
    row-sum residuals, its mismatch J^i, its two objective terms, and
    whether all its iterates are finite."""

    gap_Y: float
    gap_CiZi: float
    gap_Ci1: float
    J: float
    fit: float
    penalty: float
    finite: bool


def _view_beside_consensus(state: SolverState, i: int) -> tuple[float, float, float]:
    """View i's work that reads no C, run beside the C update: the split and
    row-sum residuals C^i - Z^i and C^i 1 - 1, their Lam^i and Omega^i steps
    with the current mu, and the fit ||Y^i - C^i Y^i||_F^2. Returns
    (gap_CiZi, gap_Ci1, fit), the residuals' max-norms and the fit."""
    mu = state.mu
    Y = state.Y[i]
    Ci = state.Ci[i]
    split = Ci - state.Zi[i]
    rows = Ci.sum(axis=1) - 1.0
    gap_CiZi = float(np.abs(split).max())
    gap_Ci1 = float(np.abs(rows).max())
    split *= mu
    split += state.Lam[i]
    state.Lam[i] = split
    rows *= mu
    rows += state.Omega[i]
    state.Omega[i] = rows
    del split, rows
    fit = _squared_distance(Y, Ci @ Y)
    return gap_CiZi, gap_Ci1, fit


def _view_after_consensus(
    state: SolverState,
    ds: MultiViewDataset,
    cfg: SolverConfig,
    i: int,
    *,
    CX: list[np.ndarray | None] | None,
    CZ: list[np.ndarray | None] | None,
    beside: list[tuple[float, float, float]],
) -> _ViewMeasures:
    """View i's work after the C update, reading only view i's iterates, C
    and mu, and its measures ``beside[i]`` from ``_view_beside_consensus``.

    Forms C X^i into ``CX[i]``, the coupling residual 4Y^i - 3X^i - CX^i and
    its Gamma^i step with the current mu, then J^i = ||C - C^i||_F^2, C Z^i
    into ``CZ[i]`` and the penalty term alpha ||C^i - C Z^i||_F^2, and
    checks that view i's iterates are finite. C X^i and C Z^i serve the next
    iteration's Y^i and C^i updates. ``CX`` is None for the ``no_smoothing``
    variant, which lacks the coupling; ``CZ`` is None for ``frobenius``,
    whose penalty term is alpha ||C^i||_F^2.
    """
    Y = state.Y[i]
    Ci = state.Ci[i]
    gap_Y = 0.0
    if CX is not None:
        X = ds.views[i]
        CX[i] = state.C @ X
        coupling = 4.0 * Y - 3.0 * X - CX[i]
        gap_Y = float(np.abs(coupling).max())
        state.Gamma[i] = state.Gamma[i] + state.mu * coupling
        del coupling
    J = _squared_distance(state.C, Ci)
    if CZ is None:
        penalty = cfg.alpha * float(np.sum(Ci**2))
    else:
        CZ[i] = state.C @ state.Zi[i]
        penalty = cfg.alpha * _squared_distance(Ci, CZ[i])
    iterates = (Y, Ci, state.Zi[i], state.Gamma[i], state.Lam[i], state.Omega[i])
    finite = all(np.all(np.isfinite(arr)) for arr in iterates)
    gap_CiZi, gap_Ci1, fit = beside[i]
    return _ViewMeasures(gap_Y, gap_CiZi, gap_Ci1, J, fit, penalty, finite)


def _consensus_residuals(state: SolverState) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the consensus split and row-sum constraints: C - Z and
    C 1 - 1."""
    return state.C - state.Z, state.C.sum(axis=1) - 1.0


def constraint_gaps(residuals: tuple, views: list[_ViewMeasures]) -> dict[str, float]:
    """Max-norms of the constraint violations: gap_Y, gap_CZ, gap_C1,
    gap_CiZi and gap_Ci1.

    ``residuals`` is ``_consensus_residuals`` of the current state, and
    ``views`` lists every view's ``_view_after_consensus`` measures, folded
    here in view order. gap_Y is 0 for the no-smoothing variant, whose model
    has no feature-coupling constraint.
    """
    gap_Y = max(view.gap_Y for view in views)
    C_Z, C_1 = residuals
    gap_CiZi = 0.0
    gap_Ci1 = 0.0
    for view in views:
        gap_CiZi = max(gap_CiZi, view.gap_CiZi)
        gap_Ci1 = max(gap_Ci1, view.gap_Ci1)
    return {
        "gap_Y": gap_Y,
        "gap_CZ": float(np.abs(C_Z).max()),
        "gap_C1": float(np.abs(C_1).max()),
        "gap_CiZi": gap_CiZi,
        "gap_Ci1": gap_Ci1,
    }


def _grown_penalty(mu: float, cfg: SolverConfig) -> float:
    """The penalty of the iteration after one at ``mu``: min(mu_max, rho mu)."""
    return min(cfg.mu_max, cfg.rho * mu)


def update_multipliers(state: SolverState, cfg: SolverConfig, residuals: tuple) -> None:
    """Ascend the consensus multipliers Theta and Phi with the current mu,
    then grow mu (``_grown_penalty``).

    ``residuals`` is ``_consensus_residuals`` of the current state, whose
    arrays become the new Theta and Phi. Each view's Lam^i and Omega^i step
    (``_view_beside_consensus``) and Gamma^i step (``_view_after_consensus``),
    with the same mu, must run first.
    """
    mu = state.mu
    C_Z, C_1 = residuals
    C_Z *= mu
    C_Z += state.Theta
    state.Theta = C_Z
    C_1 *= mu
    C_1 += state.Phi
    state.Phi = C_1
    state.mu = _grown_penalty(mu, cfg)


def view_mismatches(views: list[_ViewMeasures]) -> np.ndarray:
    """J^i = ||C - C^i||_F^2 for every view, from the views'
    ``_view_after_consensus`` measures."""
    return np.array([view.J for view in views])


def update_view_weights(J: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """Closed-form simplex weights gamma_i proportional to J_i^{1/(1-eta)},
    for the mismatches J = ``view_mismatches(views)``.

    Each J^i is floored at J_FLOOR before exponentiation so the first
    iteration (all J^i = 0) yields uniform weights instead of 0 to a negative
    power.
    """
    J = np.maximum(J, J_FLOOR)
    powered = J ** (1.0 / (1.0 - cfg.eta))
    return powered / powered.sum()


def objective_value(state: SolverState, cfg: SolverConfig, views: list[_ViewMeasures]) -> float:
    """Model objective at the current iterates and view weights, using the
    split form C Z^i of the consensus-filter regularizer: the views'
    ``_view_after_consensus`` terms and weighted mismatches, summed in view
    order."""
    total = 0.0
    for i, view in enumerate(views):
        total += view.fit
        total += view.penalty
        total += _view_weight(cfg, state.gamma[i]) * view.J
    return total


def _check_finite(
    state: SolverState, diagnostics: Diagnostics, views: list[_ViewMeasures]
) -> None:
    """Raise if C, Z, Theta, Phi, gamma or, by its ``_view_after_consensus``
    check, any view's iterates hold a non-finite entry."""
    iterates = [state.C, state.Z, state.Theta, state.Phi, state.gamma]
    finite = all(np.all(np.isfinite(arr)) for arr in iterates)
    if not (finite and all(view.finite for view in views)):
        raise SolverNumericalError(
            f"non-finite iterate at iteration {state.iteration}",
            iteration=state.iteration,
            diagnostics=diagnostics,
        )


def _use_helper_thread(n_views: int) -> bool:
    """Whether a solve shares its per-view updates with a worker: with two or
    more views, two or more CPUs this process may run on, and
    single-threaded OpenBLAS, whose threads would otherwise compete with the
    worker for the cores."""
    return n_views >= 2 and len(os.sched_getaffinity(0)) >= 2 and blas_threads() == 1


def _view_before_consensus(
    state: SolverState,
    ds: MultiViewDataset,
    cfg: SolverConfig,
    i: int,
    *,
    factor: np.ndarray | None,
    CX: list[np.ndarray | None] | None,
    CZ: list[np.ndarray | None] | None,
    systems: list[_HeldWork | None] | None,
) -> tuple:
    """View i's work before the C update: its Y^i, C^i and Z^i updates
    against the previous C, in that order; returns its terms of the C update
    (``_consensus_terms``). ``systems[i]`` is view i's Y^i system, which it
    replaces with the next iteration's, at its new C^i and the next mu
    (``_grown_penalty``). ``CX`` and ``systems`` are None for the
    ``no_smoothing`` variant, ``CZ`` and ``factor`` for ``frobenius``.

    Drops C X^i, C Z^i and the Y^i system after their last reader, and the
    old C^i and Z^i before their successors are built: the C^i update does
    not read C^i, nor the Z^i update Z^i.
    """
    if CX is not None:
        state.Y[i] = update_view_representation(state, ds, i, CX=CX[i], system=systems[i])
        CX[i] = systems[i] = None
    state.Ci[i] = None
    state.Ci[i] = update_view_coefficients(state, i, cfg, CZi=None if CZ is None else CZ[i])
    if CZ is not None:
        CZ[i] = None
    if systems is not None:
        systems[i] = _representation_system(state.Ci[i], _grown_penalty(state.mu, cfg))
    state.Zi[i] = None
    state.Zi[i] = update_view_auxiliary(state, i, cfg, factor=factor)
    return _consensus_terms(state, ds, cfg, i, split=CZ is not None, smoothing=CX is not None)


def _run_views(
    pool: ThreadPoolExecutor | None, n_views: int, task, fold=None, shared=None, spare=None
) -> list:
    """``task(i)`` for every view i; returns the results in view order, or
    with a ``fold`` runs ``fold(i, task(i))`` for every view in view order.
    ``shared()``, if given, is work that reads nothing the tasks write and
    writes nothing they read; the calling thread runs it first. ``spare(i)``,
    if given, takes one step of work for view i that neither ``shared`` nor a
    task or fold reads or writes, with a fold once view i is folded, and
    returns whether view i has a step left.

    The only code that knows about threads: with a one-worker ``pool``, the
    worker starts taking the views in order from one shared sequence at
    once, and the calling thread joins it when ``shared`` returns; each
    folds the views it ran, view i only once view i - 1's fold has
    finished. A thread with no view left to take runs ``spare`` while the
    other is still inside ``shared``, a task or a fold: view by view in
    order, with a fold only for views already folded, and only until the
    other is done, so the dispatch ends at most one spare step late. Without
    a pool no spare step runs. Once ``shared``, a task, a fold or a spare
    step raises, neither thread takes another view, fold or spare step, so
    the error is raised once.
    """
    results = [None] * n_views
    views = iter(range(n_views))
    folded = 0
    spared = 0  # the views before this one have no spare step left
    busy = 0 if shared is None else 1  # threads inside shared, a task or a fold
    failed = False
    changed = threading.Condition()

    def work() -> None:
        nonlocal folded, busy
        while True:
            with changed:
                i = None if failed else next(views, None)
                if i is not None:
                    busy += 1
            if i is None:
                break
            result = task(i)
            if fold is None:
                results[i] = result
            else:
                with changed:
                    changed.wait_for(lambda: failed or folded == i)
                    if failed:
                        return
                fold(i, result)
                del result  # not held through the next view's task
            with changed:
                if fold is not None:
                    folded += 1
                busy -= 1
                changed.notify_all()
        if spare is not None:
            beside_the_other()

    def beside_the_other() -> None:
        # Spare steps never overlap: a thread spares only while the other is
        # busy, and a busy thread does not spare.
        nonlocal spared
        while True:
            with changed:
                changed.wait_for(
                    lambda: failed
                    or not busy
                    or spared == n_views
                    or spared < (n_views if fold is None else folded)
                )
                if failed or not busy or spared == n_views:
                    return
                i = spared
            if not spare(i):
                with changed:
                    spared = i + 1

    def run_shared() -> None:
        nonlocal busy
        shared()
        with changed:
            busy -= 1
            changed.notify_all()

    def stopping_on_error(run) -> None:
        nonlocal failed
        try:
            run()
        except BaseException:
            with changed:
                failed = True
                changed.notify_all()
            raise

    if pool is None:
        if shared is not None:
            run_shared()
        work()
        return results
    # a copy of the caller's context carries np.errstate to the worker
    worker = pool.submit(contextvars.copy_context().run, stopping_on_error, work)
    try:
        if shared is not None:
            stopping_on_error(run_shared)
        stopping_on_error(work)
    finally:
        error = worker.exception()
    if error is not None:
        raise error
    return results


def solve_peak_bytes(n_samples: int, n_views: int, total_dim: int) -> int:
    """Estimated peak bytes a solve allocates for n samples, v views and
    total_dim = sum_i d_i: 8 [(5v + 13) n^2 + 6.5 n sum_i d_i].

    Live through an iteration are 5v + 7 n x n arrays: C^i, Z^i, Lam^i and
    C Z^i of every view, and the next Y^i system that each view may hold,
    with C, Z, Theta, sum_i X^i X^i^T, the Z^i inverse factor and the sums A
    and B of the C update. Each unit in flight adds its temporaries, and a
    view waiting for its turn to fold its three n x n terms of the C update.
    The n x d_i arrays (Y^i, Gamma^i, C X^i and the temporaries of the units
    in flight, the thin-SVD factors among them) make up the second term.
    README "Memory" tells how the estimate was fitted.
    """
    n = n_samples
    return 4 * ((10 * n_views + 26) * n * n + 13 * n * total_dim)


def solve(
    ds: MultiViewDataset, cfg: SolverConfig, variant: str = VARIANT_FULL, callback=None
) -> SolverOutput:
    """Run ``variant`` (one of VARIANTS) to convergence or cfg.max_iter.

    The one place that maps a variant to what the updates read.
    ``no_smoothing`` pins Y^i to X^i, with no feature-coupling constraint or
    Gamma^i multiplier, so its updates get no C X^i, Y^i system or
    sum_i X^i X^i^T. ``frobenius`` puts a plain ridge penalty
    alpha ||C^i||_F^2 in place of the consensus-filter regularizer, so Z^i is
    the projected multiplier shift of C^i, and its updates get no C Z^i or
    Z^i factor.

    One iteration updates, in order: per view Y^i, C^i, Z^i (every view
    against the previous iteration's consensus), then C, Z, the multipliers
    with the current mu, mu itself, and finally the view weights. It runs in
    three dispatches of ``_run_views`` on the calling thread and, where
    ``_use_helper_thread`` allows, the one worker of a thread pool (README
    "Two threads per iteration"); the outputs are bitwise those of one
    thread. The run stops once every constraint-gap max-norm is <= cfg.eps
    and the squared successive changes of C and Z are <= RESID_TOL. The
    optional ``callback(state)`` fires after each completed iteration, on
    the calling thread. A linear algebra failure in an iteration's updates,
    on either thread, or a non-finite iterate, raises one
    ``SolverNumericalError`` with the iteration and the diagnostics recorded
    so far. The Z^i factor and the Y^i systems of iteration k + 1 are formed
    in iteration k as ``_HeldWork``, so a failure to form one counts as
    iteration k + 1's and is not raised if the run stops at k. The pool is
    shut down by the time ``solve`` returns or raises.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    smoothing = variant != VARIANT_NO_SMOOTHING
    split = variant != VARIANT_FROBENIUS
    state = init_state(ds, cfg)
    if not smoothing:
        state.Y = [x.copy() for x in ds.views]
    diagnostics = Diagnostics()
    converged = False
    XXt = _feature_gram(ds) if smoothing else None
    # C Z^i and C X^i of the previous iteration's end, zero for the zero
    # start before the first: C and Z^i are unchanged until the C^i and Y^i
    # updates of view i have used them. Every n x n temporary of an iteration
    # is dropped after its last reader so that the solve's peak stays within
    # solve_peak_bytes.
    CZ = [np.zeros_like(Zi) for Zi in state.Zi] if split else None
    CX = [np.zeros_like(X) for X in ds.views] if smoothing else None
    # View i's next Y^i system, which a thread's spare time brings forward.
    systems = [_representation_system(Ci, state.mu) for Ci in state.Ci] if smoothing else None
    spare = (lambda i: systems[i].step()) if smoothing else None

    def next_factor(mu: float) -> _HeldWork | None:
        """The Z^i inverse factor at the current C and ``mu``, formed now."""
        if not split:
            return None
        factor = _HeldWork(functools.partial(_view_auxiliary_factor, state.C, mu, cfg))
        factor.step()
        return factor

    # The shared work beside the views' second and third steps, on the
    # calling thread; each drops the previous C or Z once its squared change
    # is taken.
    def update_consensus() -> None:
        nonlocal residual_C
        C_prev = state.C
        state.C = update_consensus_coefficients(state, ds, cfg, XXt=XXt, sums=sums)
        residual_C = _squared_distance(state.C, C_prev)

    def after_consensus() -> None:
        nonlocal residual_Z, residuals, factor
        Z_prev = state.Z
        state.Z = update_consensus_auxiliary(state)
        residual_Z = _squared_distance(state.Z, Z_prev)
        del Z_prev
        residuals = _consensus_residuals(state)
        factor = next_factor(_grown_penalty(state.mu, cfg))

    residual_C = residual_Z = 0.0
    residuals = None
    factor = next_factor(state.mu)
    pool = ThreadPoolExecutor(max_workers=1) if _use_helper_thread(ds.n_views) else None
    try:
        for iteration in range(1, cfg.max_iter + 1):
            state.iteration = iteration
            try:
                sums = _ConsensusSums(state, cfg)
                before = functools.partial(
                    _view_before_consensus, state, ds, cfg, CX=CX, CZ=CZ, systems=systems,
                    factor=None if factor is None else factor.result(),
                )  # fmt: skip
                _run_views(pool, ds.n_views, before, fold=sums.add, spare=spare)
                del before
                factor = None
                steps = functools.partial(_view_beside_consensus, state)
                beside = _run_views(pool, ds.n_views, steps, shared=update_consensus, spare=spare)
                del steps, sums
            except np.linalg.LinAlgError as exc:
                raise SolverNumericalError(
                    f"linear solve failed at iteration {iteration}: {exc}",
                    iteration=iteration,
                    diagnostics=diagnostics,
                ) from None
            after = functools.partial(
                _view_after_consensus, state, ds, cfg, CX=CX, CZ=CZ, beside=beside
            )
            views = _run_views(pool, ds.n_views, after, shared=after_consensus, spare=spare)
            del after, beside
            gaps = constraint_gaps(residuals, views)
            update_multipliers(state, cfg, residuals)
            residuals = None
            J = view_mismatches(views)
            state.gamma = update_view_weights(J, cfg)

            diagnostics.residual_C.append(residual_C)
            diagnostics.residual_Z.append(residual_Z)
            for key, value in gaps.items():
                getattr(diagnostics, key).append(value)
            diagnostics.objective.append(objective_value(state, cfg, views))
            diagnostics.J.append(J)

            _check_finite(state, diagnostics, views)
            if callback is not None:
                callback(state)

            if (
                max(gaps.values()) <= cfg.eps
                and diagnostics.residual_C[-1] <= RESID_TOL
                and diagnostics.residual_Z[-1] <= RESID_TOL
            ):
                converged = True
                break
    finally:
        if pool is not None:
            pool.shutdown()
    return SolverOutput(
        consensus_C=state.C,
        view_C=state.Ci,
        gamma=state.gamma,
        diagnostics=diagnostics,
        converged=converged,
        iterations=state.iteration,
    )
