"""Spectrum diagnostics of the consensus graph filter.

The filter built from a consensus coefficient matrix C is G = 0.75*I + 0.25*C.
When C is symmetric, nonnegative, zero-diagonal, and row-stochastic this
equals I - L/2 for the self-loop normalized Laplacian L = I - (C + I)/2 of C,
i.e. a first-order low-pass filter with response 1 - lambda/2 on Laplacian
frequencies, so its eigenvalues lie in [1/2, 1].

The solver, the CLI and the spectral stage never call this module: the solver
uses the coupling 4Y^i = 3X^i + CX^i directly, and spectral clustering builds
its own affinity Laplacian. It serves as a check on a learned C.
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


def consensus_filter(C: np.ndarray) -> np.ndarray:
    """First-order low-pass filter G = 0.75*I + 0.25*C.

    No feasibility checks on C, so it also accepts solver iterates, which
    satisfy the coefficient constraints only at convergence. The solver does
    not call it: its updates use the coupling 4Y^i = 3X^i + CX^i directly.
    """
    C = _require_square(C, "coefficient matrix C")
    return 0.75 * np.eye(C.shape[0]) + 0.25 * C


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
