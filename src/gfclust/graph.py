"""Graph-filter math: self-loop normalized Laplacians, consensus low-pass
filters, feature smoothing, and spectrum diagnostics.

The filter built from a consensus coefficient matrix C is G = 0.75*I + 0.25*C.
When C is symmetric, nonnegative, zero-diagonal, and row-stochastic this
equals I - L/2 for the self-loop normalized Laplacian of C, i.e. a first-order
low-pass filter with response 1 - lambda/2 on Laplacian frequencies.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class GraphSpectrum(NamedTuple):
    """Eigendecomposition with eigenvalues sorted ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _require_square(M: np.ndarray, what: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {M.shape}")
    return M


def normalized_laplacian(W: np.ndarray) -> np.ndarray:
    """Self-loop normalized Laplacian I - D^{-1/2} (W + I) D^{-1/2}.

    D is the degree matrix of the self-loop augmented adjacency W + I, so its
    diagonal is always >= 1. Eigenvalues of the result lie in [0, 2].
    """
    W = _require_square(W, "adjacency W")
    scale = max(1.0, float(np.abs(W).max()))
    if np.abs(W - W.T).max() > 1e-8 * scale:
        raise ValueError("adjacency W must be symmetric")
    if W.min() < 0:
        raise ValueError("adjacency W must be entrywise nonnegative")
    A = W + np.eye(W.shape[0])
    d_inv_sqrt = 1.0 / np.sqrt(A.sum(axis=1))
    return np.eye(W.shape[0]) - (d_inv_sqrt[:, None] * A) * d_inv_sqrt[None, :]


def consensus_filter(C: np.ndarray) -> np.ndarray:
    """First-order low-pass filter G = 0.75*I + 0.25*C.

    No feasibility checks on C, so it also accepts solver iterates, which
    satisfy the coefficient constraints only at convergence. The solver does
    not call it: its updates use the coupling 4Y^i = 3X^i + CX^i directly.
    """
    C = _require_square(C, "coefficient matrix C")
    return 0.75 * np.eye(C.shape[0]) + 0.25 * C


def smooth_features(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Apply the filter to node features, returning G @ X."""
    G = _require_square(G, "filter G")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != G.shape[0]:
        raise ValueError(f"feature shape {X.shape} does not conform with filter {G.shape}")
    return G @ X


def filter_spectrum(M: np.ndarray, sym_tol: float = 1e-8) -> GraphSpectrum:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    The input is symmetrized as (M + M.T)/2 before decomposition to absorb
    floating-point drift from the solver loop; asymmetry beyond ``sym_tol``
    (relative) is an error.
    """
    M = _require_square(M, "matrix M")
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > sym_tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (M + M.T))
    return GraphSpectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors)
