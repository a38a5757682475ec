"""Multi-view subspace clustering with an adaptive consensus graph filter.

The pipeline: an ADMM solver jointly learns per-view reconstruction
coefficient matrices and a consensus coefficient matrix that doubles as a
low-pass graph filter; spectral clustering of the consensus affinity produces
labels; standard external metrics score them against ground truth.
"""

from .data import (
    DatasetError,
    MultiViewDataset,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    normalize_views,
    write_dataset,
)
from .metrics import EvaluationReport, ari, clustering_accuracy, evaluate, f_score, hungarian, nmi
from .solver import (
    Diagnostics,
    SolverConfig,
    SolverNumericalError,
    SolverOutput,
    SolverState,
    solve,
)
from .spectral import ClusterAssignment, build_affinity, kmeans, spectral_clustering

__version__ = "0.1.0"

__all__ = [
    "ClusterAssignment",
    "DatasetError",
    "Diagnostics",
    "EvaluationReport",
    "MultiViewDataset",
    "SolverConfig",
    "SolverNumericalError",
    "SolverOutput",
    "SolverState",
    "SyntheticSpec",
    "ari",
    "build_affinity",
    "clustering_accuracy",
    "evaluate",
    "f_score",
    "generate_synthetic",
    "hungarian",
    "kmeans",
    "load_dataset",
    "nmi",
    "normalize_views",
    "solve",
    "spectral_clustering",
    "write_dataset",
]
