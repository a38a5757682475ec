"""Turn a coefficient matrix into cluster labels: affinity construction,
normalized spectral embedding, and a seeded k-means with restarts."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

LLOYD_MAX_ITER = 300  # Lloyd rounds per k-means restart


@dataclass
class ClusterAssignment:
    """Labels in [0, k) plus the k-means objective of the winning restart.

    A label value may end up unused when k-means degenerates (coincident
    points); the assignment reports that outcome rather than repairing it.
    """

    labels: np.ndarray
    k: int
    inertia: float


def build_affinity(C: np.ndarray) -> np.ndarray:
    """Symmetric nonnegative affinity W = (|C| + |C^T|)/2."""
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got shape {C.shape}")
    return 0.5 * (np.abs(C) + np.abs(C.T))


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all remaining distances zero: coincident points, pick uniformly
            centers[j] = points[rng.integers(n)]
            continue
        centers[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray):
    k = centers.shape[0]
    prev_inertia = np.inf
    labels = np.zeros(points.shape[0], dtype=int)
    for _ in range(LLOYD_MAX_ITER):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        inertia = float(d2[np.arange(points.shape[0]), labels].sum())
        for j in range(k):
            mask = labels == j
            if mask.any():
                centers[j] = points[mask].mean(axis=0)
            else:
                # relocate an empty cluster to the worst-fit point
                centers[j] = points[d2[np.arange(points.shape[0]), labels].argmax()]
        if prev_inertia - inertia < 1e-10:
            break
        prev_inertia = inertia
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(points.shape[0]), labels].sum())
    return labels, inertia


def kmeans(points: np.ndarray, k: int, seed: int = 0, restarts: int = 20) -> ClusterAssignment:
    """k-means++ initialization and Lloyd iterations, best of ``restarts`` runs.

    Each restart r draws from an independent generator seeded by (seed, r),
    so results are deterministic for a fixed seed and restart count. Lloyd
    stops when the inertia improvement drops below 1e-10 or after
    ``LLOYD_MAX_ITER`` rounds.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"cluster count k={k} must be in [1, {n}]")
    if restarts < 1:
        raise ValueError(f"restarts={restarts} must be at least 1")
    best_labels = None
    best_inertia = np.inf
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        centers = _kmeanspp_init(points, k, rng)
        labels, inertia = _lloyd(points, centers)
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return ClusterAssignment(labels=best_labels, k=k, inertia=best_inertia)


def spectral_clustering(
    W: np.ndarray, k: int, seeds: Iterable[int], restarts: int = 20
) -> list[ClusterAssignment]:
    """Normalized-cuts style clustering of an affinity matrix, once per seed.

    Builds L = I - D^{-1/2} W D^{-1/2} with D the degree matrix of W itself
    (no self-loop augmentation on the clustering side), embeds samples with
    the k eigenvectors of smallest eigenvalue and row-normalizes the embedding
    (zero rows stay zero). The embedding depends on W and k alone, so it is
    formed once and rounded by ``kmeans`` for each of ``seeds``; the result
    holds one assignment per seed, in order.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"affinity must be square, got shape {W.shape}")
    if not np.isfinite(W).all():
        raise ValueError("affinity must be finite")
    n = W.shape[0]
    scale = max(1.0, float(np.abs(W).max()))
    if np.abs(W - W.T).max() > 1e-8 * scale:
        raise ValueError("affinity must be symmetric")
    if W.min() < 0:
        raise ValueError("affinity must be entrywise nonnegative")
    if not 1 <= k <= n:
        raise ValueError(f"cluster count k={k} must be in [1, {n}]")
    degrees = W.sum(axis=1)
    d_inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.where(degrees > 0, degrees, 1.0)), 0.0)
    L = np.eye(n) - (d_inv_sqrt[:, None] * W) * d_inv_sqrt[None, :]
    _, vectors = np.linalg.eigh(0.5 * (L + L.T))
    embedding = vectors[:, :k]
    norms = np.linalg.norm(embedding, axis=1)
    embedding = embedding / np.where(norms > 0, norms, 1.0)[:, None]
    return [kmeans(embedding, k, seed=seed, restarts=restarts) for seed in seeds]
