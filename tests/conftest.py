import os

# Single-threaded BLAS keeps tiny dense solves off the thread-sync path and
# makes timings reproducible; must be set before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import time

import numpy as np
import pytest

from gfclust.data import SyntheticSpec, generate_synthetic
from gfclust.solver import SolverConfig, solve

BENCHMARK_SPEC = SyntheticSpec(
    k=3,
    n_per_cluster=30,
    subspace_dim=3,
    view_dims=(20, 30),
    noise_sigma=0.01,
    seed=7,
)

BENCHMARK_SOLVER = SolverConfig(alpha=0.5, beta=0.5, eta=0.5, eps=1e-4, max_iter=500)


class IterationRecorder:
    """Collects per-iteration invariant observations from the solver callback."""

    def __init__(self):
        self.mu = []
        self.gamma_sum = []
        self.gamma_min = []
        self.aux_asym = []
        self.aux_min = []
        self.aux_diag = []

    def __call__(self, state):
        self.mu.append(state.mu)
        self.gamma_sum.append(float(state.gamma.sum()))
        self.gamma_min.append(float(state.gamma.min()))
        aux = list(state.Zi) + [state.Z]
        self.aux_asym.append(max(float(np.abs(M - M.T).max()) for M in aux))
        self.aux_min.append(min(float(M.min()) for M in aux))
        self.aux_diag.append(max(float(np.abs(np.diag(M)).max()) for M in aux))


@pytest.fixture(scope="session")
def benchmark_dataset():
    return generate_synthetic(BENCHMARK_SPEC)


@pytest.fixture(scope="session")
def benchmark_cfg():
    return BENCHMARK_SOLVER


@pytest.fixture(scope="session")
def benchmark_run(benchmark_dataset, benchmark_cfg):
    """Full-variant solve on the synthetic benchmark, with invariant recording."""
    recorder = IterationRecorder()
    start = time.monotonic()
    output = solve(benchmark_dataset, benchmark_cfg, callback=recorder)
    elapsed = time.monotonic() - start
    return {"output": output, "recorder": recorder, "seconds": elapsed}


@pytest.fixture(scope="session")
def benchmark_ablations(benchmark_dataset, benchmark_cfg):
    return {
        "no_smoothing": solve(benchmark_dataset, benchmark_cfg, "no_smoothing"),
        "frobenius": solve(benchmark_dataset, benchmark_cfg, "frobenius"),
    }
