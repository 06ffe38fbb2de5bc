"""Shared builders for the test suite."""

import time

import numpy as np
import pytest
from hypothesis import settings

from otselect import (
    DiscreteJointDistribution,
    FeatureMatrix,
    LabeledDataset,
    default_dda_matrix,
    pairwise_distances,
    run_experiment_matrix,
)

# Property tests draw the same examples on every run, so tier-1 is
# deterministic; each test keeps its own max_examples and deadline.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def gate01_instance(i: int) -> tuple[np.ndarray, np.ndarray]:
    """The i-th instance of acceptance gate 01 (k <= 3, at most 30 x 30)."""
    r = np.random.default_rng(1000 + i)
    k = int(r.integers(1, 4))
    hi = 24 if k == 3 else 30
    counts = np.minimum(r.integers(2, max(3, hi // k) + 1, size=k), 30 // k)
    m = int(r.integers(6, hi + 1))
    src = r.normal(size=(int(counts.sum()), 2))
    tgt = r.normal(size=(m, 2)) + r.normal(size=2)
    return pairwise_distances(FeatureMatrix(src), FeatureMatrix(tgt)), counts


def gate03_instance(i: int) -> tuple[np.ndarray, np.ndarray]:
    """The i-th instance of acceptance gate 03 (mixed k, n and m)."""
    r = np.random.default_rng(3000 + i)
    k = int(r.integers(2, 5))
    counts = np.minimum(r.integers(3, max(4, 60 // k) + 1, size=k), 60 // k)
    m = int(r.integers(8, 61))
    src = r.normal(size=(int(counts.sum()), 2)) * 2
    tgt = r.normal(size=(m, 2)) + r.normal(size=2)
    return pairwise_distances(FeatureMatrix(src), FeatureMatrix(tgt)), counts


def random_matrix(seed: int, n: int, d: int, scale: float = 1.0) -> FeatureMatrix:
    return FeatureMatrix(rng(seed).normal(size=(n, d)) * scale)


def random_dataset(seed: int, counts, d: int = 2, spread: float = 4.0) -> LabeledDataset:
    """Gaussian blobs, one per class, labeled densely in class order."""
    r = rng(seed)
    counts = np.asarray(counts, dtype=np.int64)
    blocks = []
    labels = []
    for i, c in enumerate(counts):
        center = r.normal(size=d) * spread
        blocks.append(center + r.normal(size=(int(c), d)))
        labels.extend([i] * int(c))
    return LabeledDataset(FeatureMatrix(np.vstack(blocks)), np.array(labels))


def random_joint(seed: int, n_atoms: int = 5, d: int = 2, n_labels: int = 3,
                 support: np.ndarray | None = None) -> DiscreteJointDistribution:
    """Random discrete joint over (feature atom, label) pairs."""
    r = rng(seed)
    z = support if support is not None else r.normal(size=(n_atoms, d))
    labels = r.integers(0, n_labels, size=z.shape[0])
    masses = r.dirichlet(np.ones(z.shape[0]))
    return DiscreteJointDistribution(np.asarray(z, dtype=np.float64), labels, masses)


@pytest.fixture(scope="session")
def default_matrix_run() -> tuple[list[dict], float]:
    """The default experiment matrix, run once per session through the worker
    pool (the config's threads), and the seconds that run took."""
    start = time.perf_counter()
    rows = run_experiment_matrix(default_dda_matrix())
    return rows, time.perf_counter() - start


@pytest.fixture
def tmp_file(tmp_path):
    def make(name: str) -> str:
        return str(tmp_path / name)

    return make
