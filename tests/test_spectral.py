import itertools

import numpy as np
import pytest

from gfclust.metrics import clustering_accuracy
from gfclust.spectral import ClusterAssignment, build_affinity, kmeans, spectral_clustering
from oracles import connected_component_labels


def test_affinity_fixed_point_for_valid_input():
    C = np.array([[0.0, 0.3, 0.7], [0.3, 0.0, 0.2], [0.7, 0.2, 0.0]])
    np.testing.assert_array_equal(build_affinity(C), C)


def test_affinity_absolute_values():
    C = np.array([[0.0, -2.0], [2.0, 0.0]])
    np.testing.assert_array_equal(build_affinity(C), [[0.0, 2.0], [2.0, 0.0]])


def test_affinity_zero():
    np.testing.assert_array_equal(build_affinity(np.zeros((3, 3))), np.zeros((3, 3)))


def test_affinity_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        build_affinity(np.ones((2, 3)))


def block_affinity(sizes, seed=0):
    """Block-diagonal affinity with random positive within-block weights."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    W = np.zeros((n, n))
    start = 0
    for size in sizes:
        block = rng.random((size, size)) + 0.5
        block = 0.5 * (block + block.T)
        np.fill_diagonal(block, 0.0)
        W[start : start + size, start : start + size] = block
        start += size
    return W


@pytest.mark.parametrize("sizes", [(5, 5), (12, 10, 8), (4, 9), (10, 10, 10)])
def test_spectral_recovers_connected_components(sizes):
    W = block_affinity(sizes, seed=len(sizes))
    truth = connected_component_labels(W)
    [assignment] = spectral_clustering(W, k=len(sizes), seeds=[0], restarts=20)
    assert clustering_accuracy(assignment.labels, truth) == 1.0


def test_spectral_two_uniform_blocks():
    W = np.zeros((10, 10))
    W[:5, :5] = 1.0
    W[5:, 5:] = 1.0
    np.fill_diagonal(W, 0.0)
    [assignment] = spectral_clustering(W, k=2, seeds=[1])
    truth = [0] * 5 + [1] * 5
    assert clustering_accuracy(assignment.labels, truth) == 1.0


def test_spectral_k_equals_one():
    W = block_affinity((6,), seed=4)
    [assignment] = spectral_clustering(W, k=1, seeds=[0])
    np.testing.assert_array_equal(assignment.labels, np.zeros(6, dtype=int))


def test_spectral_k_equals_n_singletons():
    W = block_affinity((3, 2, 4), seed=9)
    [assignment] = spectral_clustering(W, k=9, seeds=[0], restarts=5)
    assert sorted(assignment.labels) == list(range(9))


def test_spectral_handles_isolated_node():
    W = block_affinity((4, 4), seed=2)
    W = np.pad(W, ((0, 1), (0, 1)))  # node 8 has zero degree
    [assignment] = spectral_clustering(W, k=3, seeds=[0])
    assert assignment.labels.shape == (9,)
    assert np.all(assignment.labels >= 0)


def test_spectral_rejects_bad_inputs():
    W = block_affinity((3, 3), seed=1)
    with pytest.raises(ValueError, match="k="):
        spectral_clustering(W, k=7, seeds=[0])
    with pytest.raises(ValueError, match="symmetric"):
        spectral_clustering(np.triu(np.ones((3, 3)), 1), k=2, seeds=[0])
    with pytest.raises(ValueError, match="nonnegative"):
        spectral_clustering(np.array([[0.0, -1.0], [-1.0, 0.0]]), k=2, seeds=[0])
    with pytest.raises(ValueError, match=r"affinity must be square, got shape \(2, 3\)"):
        spectral_clustering(np.ones((2, 3)), k=2, seeds=[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.filterwarnings("error")
def test_spectral_rejects_non_finite_affinity(bad):
    # Checked before any arithmetic: no numpy warning, no LinAlgError.
    W = block_affinity((3, 3), seed=1)
    W[0, 1] = W[1, 0] = bad
    with pytest.raises(ValueError, match="affinity must be finite"):
        spectral_clustering(W, k=2, seeds=[0])


def test_spectral_rounds_one_embedding_per_seed_as_single_seed_calls():
    W = block_affinity((12, 10, 8), seed=3)
    together = spectral_clustering(W, k=3, seeds=[3, 0, 7], restarts=4)
    alone = [spectral_clustering(W, k=3, seeds=[seed], restarts=4)[0] for seed in (3, 0, 7)]
    assert len(together) == 3
    for got, want in zip(together, alone):
        np.testing.assert_array_equal(got.labels, want.labels)
        assert got.inertia == want.inertia


def test_spectral_decomposes_once_for_all_seeds(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    W = block_affinity((5, 5), seed=2)
    assignments = spectral_clustering(W, k=2, seeds=[3, 0, 7], restarts=2)
    assert len(assignments) == 3
    assert calls == [(10, 10)]


def test_spectral_requires_seeds():
    W = block_affinity((3, 3), seed=1)
    with pytest.raises(TypeError):
        spectral_clustering(W, k=2)
    with pytest.raises(TypeError):
        spectral_clustering(W, k=2, seed=0)


def test_kmeans_separated_pairs():
    points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
    assignment = kmeans(points, k=2, seed=0)
    assert assignment.labels[0] == assignment.labels[1]
    assert assignment.labels[2] == assignment.labels[3]
    assert assignment.labels[0] != assignment.labels[2]


def test_kmeans_deterministic_given_seed():
    rng = np.random.default_rng(5)
    points = rng.standard_normal((40, 3))
    first = kmeans(points, k=4, seed=11)
    second = kmeans(points, k=4, seed=11)
    np.testing.assert_array_equal(first.labels, second.labels)
    assert first.inertia == second.inertia


def brute_force_two_clusters(points):
    """Best 2-clustering by inertia over all nonempty bipartitions."""
    n = len(points)
    best = None
    for assignment in itertools.product([0, 1], repeat=n):
        if len(set(assignment)) < 2:
            continue
        labels = np.asarray(assignment)
        inertia = 0.0
        for j in (0, 1):
            members = points[labels == j]
            inertia += float(((members - members.mean(axis=0)) ** 2).sum())
        if best is None or inertia < best[1]:
            best = (labels, inertia)
    return best


def test_kmeans_matches_exhaustive_partition_minimizer():
    points = np.array([[0.0], [0.1], [0.2], [10.0], [10.1]])
    expected_labels, expected_inertia = brute_force_two_clusters(points)
    assignment = kmeans(points, k=2, seed=0, restarts=10)
    assert assignment.inertia == pytest.approx(expected_inertia, rel=1e-10)
    # same split up to label swap: first three together, last two together
    assert clustering_accuracy(assignment.labels, expected_labels) == 1.0


def test_kmeans_validates_k():
    points = np.zeros((3, 2))
    with pytest.raises(ValueError, match="k="):
        kmeans(points, k=4)
    with pytest.raises(ValueError, match="k="):
        kmeans(points, k=0)
    with pytest.raises(ValueError, match="points must be a 2-D array"):
        kmeans(np.zeros(3), k=1)



@pytest.mark.parametrize("restarts", [0, -5])
def test_kmeans_rejects_restarts_below_one(restarts):
    points = np.array([[0.0], [0.1], [10.0]])
    with pytest.raises(ValueError, match=f"restarts={restarts} must be at least 1"):
        kmeans(points, k=2, restarts=restarts)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.filterwarnings("error")
def test_kmeans_rejects_non_finite_points(bad):
    points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, bad], [10.1, 10.0]])
    with pytest.raises(ValueError, match="points must be finite"):
        kmeans(points, k=2)


def test_kmeans_coincident_points_degenerate_but_reported():
    points = np.zeros((5, 2))
    assignment = kmeans(points, k=2, seed=0, restarts=3)
    assert isinstance(assignment, ClusterAssignment)
    assert assignment.inertia == 0.0
    assert set(assignment.labels) <= {0, 1}
