"""Reference implementations. The brute-force oracles and the ``dense_*``
forms of the solver's ADMM updates are independent math, by explicit
enumeration or plain dense algebra, apart from the library's code paths.
``serial_solve`` is the orchestration reference: it shares the library's
update functions and replaces ``solve``'s threads and look-ahead by one
plain loop, which ``solve`` must match bit for bit."""

import itertools
import math
from collections import Counter

import numpy as np
import scipy.linalg


def all_partitions(n, max_blocks):
    """All partitions of range(n) into at most max_blocks blocks, as label
    tuples in canonical (restricted-growth) form."""
    results = []

    def extend(prefix, used):
        if len(prefix) == n:
            results.append(tuple(prefix))
            return
        for block in range(min(used + 1, max_blocks - 1) + 1):
            if block <= used:
                extend(prefix + [block], used)
            elif block == used + 1 and block < max_blocks:
                extend(prefix + [block], used + 1)

    extend([0], 0)
    return results


def brute_force_assignment(cost):
    """Minimum-cost row-to-column assignment by exhaustive permutation search;
    among ties, the lexicographically smallest column vector wins."""
    cost = np.asarray(cost, dtype=float)
    k = cost.shape[0]
    best_perm = None
    best_total = math.inf
    for perm in itertools.permutations(range(k)):
        total = sum(cost[i, perm[i]] for i in range(k))
        if total < best_total - 1e-12:
            best_total = total
            best_perm = perm
    # second pass: first permutation (lexicographic order) within tolerance
    for perm in itertools.permutations(range(k)):
        total = sum(cost[i, perm[i]] for i in range(k))
        if total <= best_total + 1e-9 * max(1.0, abs(best_total)):
            return np.array(perm), total
    return np.array(best_perm), best_total


def brute_force_acc(pred, truth):
    """Best-bijection accuracy by trying every label permutation."""
    pred = list(pred)
    truth = list(truth)
    pred_ids = sorted(set(pred))
    truth_ids = sorted(set(truth))
    size = max(len(pred_ids), len(truth_ids))
    best = 0
    for perm in itertools.permutations(range(size)):
        matched = 0
        for p, t in zip(pred, truth):
            pi = pred_ids.index(p)
            ti = truth_ids.index(t)
            if perm[pi] == ti:
                matched += 1
        best = max(best, matched)
    return best / len(pred)


def brute_force_nmi(pred, truth):
    """Entropy arithmetic straight from joint label counts (natural log,
    geometric-mean normalization)."""
    n = len(pred)
    joint = Counter(zip(pred, truth))
    cp = Counter(pred)
    ct = Counter(truth)
    h_pred = -sum((c / n) * math.log(c / n) for c in cp.values())
    h_truth = -sum((c / n) * math.log(c / n) for c in ct.values())
    if h_pred == 0.0 and h_truth == 0.0:
        return 1.0
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    mi = 0.0
    for (p, t), c in joint.items():
        mi += (c / n) * math.log((c / n) / ((cp[p] / n) * (ct[t] / n)))
    return mi / math.sqrt(h_pred * h_truth)


def _pair_sets(labels):
    same = set()
    for i, j in itertools.combinations(range(len(labels)), 2):
        if labels[i] == labels[j]:
            same.add((i, j))
    return same


def brute_force_ari(pred, truth):
    """Adjusted Rand index from explicitly enumerated sample pairs."""
    n = len(pred)
    pred_pairs = _pair_sets(pred)
    truth_pairs = _pair_sets(truth)
    both = len(pred_pairs & truth_pairs)
    total = n * (n - 1) // 2
    expected = len(pred_pairs) * len(truth_pairs) / total if total else 0.0
    maximum = (len(pred_pairs) + len(truth_pairs)) / 2
    if maximum == expected:
        return 1.0
    return (both - expected) / (maximum - expected)


def brute_force_f_score(pred, truth):
    """Pairwise F-score from explicitly enumerated same-cluster pairs."""
    pred_pairs = _pair_sets(pred)
    truth_pairs = _pair_sets(truth)
    if not pred_pairs and not truth_pairs:
        return 1.0
    if not pred_pairs or not truth_pairs:
        return 0.0
    agreements = len(pred_pairs & truth_pairs)
    precision = agreements / len(pred_pairs)
    recall = agreements / len(truth_pairs)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def connected_component_labels(W):
    """Component ids of the graph whose edges are the nonzero entries of W."""
    n = W.shape[0]
    labels = -np.ones(n, dtype=int)
    current = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            node = stack.pop()
            for neighbor in range(n):
                if W[node, neighbor] > 0 and labels[neighbor] < 0:
                    labels[neighbor] = current
                    stack.append(neighbor)
        current += 1
    return labels


def central_difference_gradient(func, M, step=1e-5):
    """Entrywise central finite differences of a scalar function of a matrix."""
    M = np.array(M, dtype=float)
    grad = np.zeros_like(M)
    flat = M.ravel()
    grad_flat = grad.ravel()
    for idx in range(flat.size):
        original = flat[idx]
        flat[idx] = original + step
        f_plus = func(M)
        flat[idx] = original - step
        f_minus = func(M)
        flat[idx] = original
        grad_flat[idx] = (f_plus - f_minus) / (2.0 * step)
    return grad


# ---- dense ADMM updates ----
#
# The solver's updates as plain dense algebra: every Gram matrix formed by a
# general product, every linear system solved by its own Cholesky
# factorization, no product shared between updates. The solver exploits the
# structure of these matrices (a low-rank C^i right factor, one Z^i factor per
# iteration, shared products); these are the reference it is checked against.
# They read a `gfclust.solver.SolverState` and never modify it.

VARIANT_FULL = "full"
VARIANT_NO_SMOOTHING = "no_smoothing"
VARIANT_FROBENIUS = "frobenius"


def _cholesky_solve(A, B):
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), B)


def dense_view_representation(state, ds, i):
    n = ds.n_samples
    X = ds.views[i]
    ImC = np.eye(n) - state.Ci[i]
    lhs = 2.0 * ImC.T @ ImC + 16.0 * state.mu * np.eye(n)
    rhs = 12.0 * state.mu * X + 4.0 * state.mu * (state.C @ X) - 4.0 * state.Gamma[i]
    return _cholesky_solve(lhs, rhs)


def dense_view_coefficients(state, i, cfg, variant=VARIANT_FULL):
    n = state.C.shape[0]
    Y = state.Y[i]
    w = cfg.beta * state.gamma[i] ** cfg.eta
    YYt = Y @ Y.T
    ones = np.ones(n)
    J11 = np.ones((n, n))
    if variant == VARIANT_FROBENIUS:
        coupling = 2.0 * w * state.C
    else:
        coupling = 2.0 * (cfg.alpha * (state.C @ state.Zi[i]) + w * state.C)
    left = (
        2.0 * YYt
        + coupling
        + state.mu * (state.Zi[i] + J11)
        - state.Lam[i]
        - np.outer(state.Omega[i], ones)
    )
    right = 2.0 * YYt + 2.0 * (cfg.alpha + w) * np.eye(n) + state.mu * (np.eye(n) + J11)
    return _cholesky_solve(right, left.T).T


def dense_view_auxiliary(state, i, cfg, variant=VARIANT_FULL):
    """Pre-projection Z^i."""
    n = state.C.shape[0]
    if variant == VARIANT_FROBENIUS:
        return state.Ci[i] + state.Lam[i] / state.mu
    lhs = 2.0 * cfg.alpha * (state.C.T @ state.C) + state.mu * np.eye(n)
    rhs = 2.0 * cfg.alpha * (state.C.T @ state.Ci[i]) + state.mu * state.Ci[i] + state.Lam[i]
    return _cholesky_solve(lhs, rhs)


def dense_consensus_coefficients(state, ds, cfg, variant=VARIANT_FULL):
    n = ds.n_samples
    ones = np.ones(n)
    J11 = np.ones((n, n))
    A_sum = np.zeros((n, n))
    B_sum = np.zeros((n, n))
    for i in range(ds.n_views):
        w = cfg.beta * state.gamma[i] ** cfg.eta
        if variant != VARIANT_FROBENIUS:
            A_sum += 2.0 * cfg.alpha * (state.Ci[i] @ state.Zi[i].T) + 2.0 * w * state.Ci[i]
            B_sum += 2.0 * cfg.alpha * (state.Zi[i] @ state.Zi[i].T) + 2.0 * w * np.eye(n)
        else:
            A_sum += 2.0 * w * state.Ci[i]
            B_sum += 2.0 * w * np.eye(n)
        if variant != VARIANT_NO_SMOOTHING:
            X = ds.views[i]
            XXt = X @ X.T
            A_sum += (
                4.0 * state.mu * (state.Y[i] @ X.T)
                - 3.0 * state.mu * XXt
                + state.Gamma[i] @ X.T
            )
            B_sum += state.mu * XXt
    A = A_sum + state.mu * (state.Z + J11) - state.Theta - np.outer(state.Phi, ones)
    B = B_sum + state.mu * (np.eye(n) + J11)
    return _cholesky_solve(B, A.T).T


def dense_constraint_gaps(state, ds, variant=VARIANT_FULL):
    gap_Y = 0.0
    gap_CiZi = 0.0
    gap_Ci1 = 0.0
    for i in range(ds.n_views):
        if variant != VARIANT_NO_SMOOTHING:
            coupling = 4.0 * state.Y[i] - 3.0 * ds.views[i] - state.C @ ds.views[i]
            gap_Y = max(gap_Y, float(np.abs(coupling).max()))
        gap_CiZi = max(gap_CiZi, float(np.abs(state.Ci[i] - state.Zi[i]).max()))
        gap_Ci1 = max(gap_Ci1, float(np.abs(state.Ci[i].sum(axis=1) - 1.0).max()))
    return {
        "gap_Y": gap_Y,
        "gap_CiZi": gap_CiZi,
        "gap_Ci1": gap_Ci1,
        "gap_CZ": float(np.abs(state.C - state.Z).max()),
        "gap_C1": float(np.abs(state.C.sum(axis=1) - 1.0).max()),
    }


def dense_multiplier_steps(state, ds, variant=VARIANT_FULL):
    """The multipliers after one ascent step with the current mu, as a dict."""
    mu = state.mu
    out = {"Gamma": [], "Lam": [], "Omega": []}
    for i in range(ds.n_views):
        if variant != VARIANT_NO_SMOOTHING:
            coupling = 4.0 * state.Y[i] - 3.0 * ds.views[i] - state.C @ ds.views[i]
            out["Gamma"].append(state.Gamma[i] + mu * coupling)
        else:
            out["Gamma"].append(state.Gamma[i])
        out["Lam"].append(state.Lam[i] + mu * (state.Ci[i] - state.Zi[i]))
        out["Omega"].append(state.Omega[i] + mu * (state.Ci[i].sum(axis=1) - 1.0))
    out["Theta"] = state.Theta + mu * (state.C - state.Z)
    out["Phi"] = state.Phi + mu * (state.C.sum(axis=1) - 1.0)
    return out


def dense_view_mismatches(state):
    return np.array([float(np.sum((state.C - Ci) ** 2)) for Ci in state.Ci])


def dense_objective_value(state, ds, cfg, variant=VARIANT_FULL):
    total = 0.0
    for i in range(ds.n_views):
        w = cfg.beta * state.gamma[i] ** cfg.eta
        total += float(np.sum((state.Y[i] - state.Ci[i] @ state.Y[i]) ** 2))
        if variant == VARIANT_FROBENIUS:
            total += cfg.alpha * float(np.sum(state.Ci[i] ** 2))
        else:
            total += cfg.alpha * float(np.sum((state.Ci[i] - state.C @ state.Zi[i]) ** 2))
        total += w * float(np.sum((state.C - state.Ci[i]) ** 2))
    return total


def dense_solve(ds, cfg, variant, iterations):
    """Run `iterations` ADMM iterations with the dense updates, in the
    solver's order; returns the final state and the objective per iteration.

    The updates whose structure the solver does not exploit (projections,
    consensus auxiliary, view weights) are taken from the library.
    """
    from gfclust.solver import (
        init_state,
        project_constraints,
        update_consensus_auxiliary,
        update_view_weights,
    )

    state = init_state(ds, cfg)
    if variant == VARIANT_NO_SMOOTHING:
        state.Y = [x.copy() for x in ds.views]
    objectives = []
    for iteration in range(1, iterations + 1):
        state.iteration = iteration
        for i in range(ds.n_views):
            if variant != VARIANT_NO_SMOOTHING:
                state.Y[i] = dense_view_representation(state, ds, i)
            state.Ci[i] = dense_view_coefficients(state, i, cfg, variant)
            state.Zi[i] = project_constraints(dense_view_auxiliary(state, i, cfg, variant))
        state.C = dense_consensus_coefficients(state, ds, cfg, variant)
        state.Z = update_consensus_auxiliary(state)
        steps = dense_multiplier_steps(state, ds, variant)
        for name, value in steps.items():
            setattr(state, name, value)
        state.mu = min(cfg.mu_max, cfg.rho * state.mu)
        state.gamma = update_view_weights(dense_view_mismatches(state), cfg)
        objectives.append(dense_objective_value(state, ds, cfg, variant))
    return state, objectives


# ---- the serial reference solve ----


def serial_solve(ds, cfg, variant):
    """`gfclust.solver.solve` as one plain loop in its order, whose output or
    `SolverNumericalError` `solve` must give bit for bit. Every product is
    formed where it is read: C X^i and C Z^i from the previous C, the Y^i
    system and the Z^i factor in their own iteration. The C update's sums,
    the multiplier steps and the per-view measures are written out in view
    order. Library functions are looked up on `gfclust.solver` at each call,
    so a test that patches one there patches both solves."""
    from gfclust import solver as S

    smoothing = variant != VARIANT_NO_SMOOTHING
    split = variant != VARIANT_FROBENIUS
    state = S.init_state(ds, cfg)
    if not smoothing:
        state.Y = [x.copy() for x in ds.views]
    diagnostics = S.Diagnostics()
    XXt = S._feature_gram(ds) if smoothing else None
    converged = False
    for iteration in range(1, cfg.max_iter + 1):
        state.iteration = iteration
        C_prev, Z_prev, mu = state.C, state.Z, state.mu
        try:
            factor = S._view_auxiliary_factor(C_prev, mu, cfg) if split else None
            for i, X in enumerate(ds.views):
                if smoothing:
                    system = S._representation_system(state.Ci[i], mu)
                    state.Y[i] = S.update_view_representation(
                        state, ds, i, CX=C_prev @ X, system=system
                    )
                CZi = C_prev @ state.Zi[i] if split else None
                state.Ci[i] = S.update_view_coefficients(state, i, cfg, CZi=CZi)
                state.Zi[i] = S.update_view_auxiliary(state, i, cfg, factor=factor)
            B = np.full(C_prev.shape, mu, order="F")
            A = mu * (Z_prev + 1.0) - state.Theta - state.Phi[:, None]
            for i in range(ds.n_views):
                terms = S._consensus_terms(state, ds, cfg, i, split=split, smoothing=smoothing)
                ZZt, CZt, YXt = terms
                A += 2.0 * S._view_weight(cfg, state.gamma[i]) * state.Ci[i]
                if split:
                    B += ZZt
                    A += CZt
                if smoothing:
                    A += YXt
            sums = S._ConsensusSums(state, cfg, A=A, B=B)
            state.C = S.update_consensus_coefficients(state, ds, cfg, XXt=XXt, sums=sums)
        except np.linalg.LinAlgError as exc:
            message = f"linear solve failed at iteration {iteration}: {exc}"
            raise S.SolverNumericalError(message, iteration, diagnostics) from None
        state.Z = S.update_consensus_auxiliary(state)
        residuals = S._consensus_residuals(state)
        views = []
        for i, X in enumerate(ds.views):
            Y, Ci, Zi = state.Y[i], state.Ci[i], state.Zi[i]
            split_residual = Ci - Zi
            rows = Ci.sum(axis=1) - 1.0
            state.Lam[i] = state.Lam[i] + mu * split_residual
            state.Omega[i] = state.Omega[i] + mu * rows
            gap_Y = 0.0
            if smoothing:
                coupling = 4.0 * Y - 3.0 * X - state.C @ X
                gap_Y = float(np.abs(coupling).max())
                state.Gamma[i] = state.Gamma[i] + mu * coupling
            if split:
                penalty = cfg.alpha * S._squared_distance(Ci, state.C @ Zi)
            else:
                penalty = cfg.alpha * float(np.sum(Ci**2))
            iterates = (Y, Ci, Zi, state.Gamma[i], state.Lam[i], state.Omega[i])
            views.append(S._ViewMeasures(
                gap_Y, float(np.abs(split_residual).max()), float(np.abs(rows).max()),
                S._squared_distance(state.C, Ci), S._squared_distance(Y, Ci @ Y), penalty,
                all(np.all(np.isfinite(arr)) for arr in iterates),
            ))  # fmt: skip
        gaps = S.constraint_gaps(residuals, views)
        S.update_multipliers(state, cfg, residuals)
        J = S.view_mismatches(views)
        state.gamma = S.update_view_weights(J, cfg)
        residual_C = S._squared_distance(state.C, C_prev)
        residual_Z = S._squared_distance(state.Z, Z_prev)
        record = {"residual_C": residual_C, "residual_Z": residual_Z, **gaps, "J": J}
        record["objective"] = S.objective_value(state, cfg, views)
        for key, value in record.items():
            getattr(diagnostics, key).append(value)
        S._check_finite(state, diagnostics, views)
        if max(gaps.values()) <= cfg.eps and max(residual_C, residual_Z) <= S.RESID_TOL:
            converged = True
            break
    return S.SolverOutput(state.C, state.Ci, state.gamma, diagnostics, converged, iteration)
