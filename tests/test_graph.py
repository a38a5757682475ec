import numpy as np
import pytest

from gfclust.graph import GraphSpectrum, consensus_filter, filter_spectrum


def sinkhorn_symmetric(M, iterations=200):
    """Symmetric doubly-stochastic scaling; used to build feasible consensus
    matrices (symmetric, nonnegative, zero diagonal, rows summing to one)."""
    W = np.array(M, dtype=float)
    W = 0.5 * (W + W.T)
    np.fill_diagonal(W, 0.0)
    for _ in range(iterations):
        d = W.sum(axis=1)
        scale = 1.0 / np.sqrt(d)
        W = (scale[:, None] * W) * scale[None, :]
    return W


def feasible_consensus(n, seed):
    rng = np.random.default_rng(seed)
    C = sinkhorn_symmetric(rng.random((n, n)) + 0.1)
    assert np.abs(C.sum(axis=1) - 1.0).max() < 1e-10
    return C


def test_consensus_filter_zero_coefficients():
    G = consensus_filter(np.zeros((3, 3)))
    np.testing.assert_array_equal(G, 0.75 * np.eye(3))


def test_consensus_filter_direct_arithmetic():
    G = consensus_filter(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(G, [[0.75, 0.25], [0.25, 0.75]])


def test_consensus_filter_complete_graph_spectrum():
    n = 3
    C = (np.ones((n, n)) - np.eye(n)) / (n - 1)
    G = consensus_filter(C)
    np.testing.assert_allclose(np.linalg.eigvalsh(G), [0.625, 0.625, 1.0], atol=1e-12)


def test_consensus_filter_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        consensus_filter(np.ones((2, 3)))


def test_consensus_filter_preserves_row_sums():
    C = feasible_consensus(6, seed=0)
    G = consensus_filter(C)
    np.testing.assert_allclose(G.sum(axis=1), np.ones(6), atol=1e-12)


def test_filter_spectrum_identity():
    spectrum = filter_spectrum(np.eye(4))
    np.testing.assert_allclose(spectrum.eigenvalues, np.ones(4))


def test_filter_spectrum_sorted_ascending():
    spectrum = filter_spectrum(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(spectrum.eigenvalues, [1.0, 2.0, 3.0])
    assert isinstance(spectrum, GraphSpectrum)


def test_filter_spectrum_reconstruction():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((8, 8))
    M = 0.5 * (M + M.T)
    values, vectors = filter_spectrum(M)
    reconstructed = vectors @ np.diag(values) @ vectors.T
    assert np.linalg.norm(reconstructed - M) <= 1e-8
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(8), atol=1e-8)


def test_filter_spectrum_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        filter_spectrum(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_feasible_consensus_filter_spectrum_in_band():
    """Exactly feasible consensus matrices put the filter spectrum in [1/2, 1]."""
    for seed in range(3):
        C = feasible_consensus(8, seed=seed)
        values = filter_spectrum(consensus_filter(C)).eigenvalues
        assert values.min() >= 0.5 - 1e-8
        assert values.max() <= 1.0 + 1e-8
