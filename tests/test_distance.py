"""Pairwise distance matrix vs a naive per-pair oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otselect import FeatureMatrix, pairwise_distances
from otselect.errors import DimensionMismatch

from conftest import random_matrix, rng


def naive_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.empty((x.shape[0], y.shape[0]))
    for i in range(x.shape[0]):
        for j in range(y.shape[0]):
            out[i, j] = math.sqrt(sum((a - b) ** 2 for a, b in zip(x[i], y[j])))
    return out


def test_matches_naive_loop_on_random_matrices():
    for seed in range(10):
        r = rng(seed)
        n, m, d = r.integers(1, 12, size=3)
        x = r.normal(size=(n, d)) * r.choice([0.01, 1.0, 100.0])
        y = r.normal(size=(m, d)) * r.choice([0.01, 1.0, 100.0])
        got = pairwise_distances(FeatureMatrix(x), FeatureMatrix(y))
        want = naive_distances(x, y)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_identical_rows_give_exact_zero():
    x = rng(3).normal(size=(6, 4)) * 1e6
    D = pairwise_distances(FeatureMatrix(x), FeatureMatrix(x.copy()))
    assert np.all(np.diag(D) == 0.0)


def test_nonnegative_even_for_nearly_equal_points():
    # catastrophic cancellation in a (|a|^2 + |b|^2 - 2ab) formulation would
    # go negative here
    base = rng(4).normal(size=(50, 3)) * 1e8
    x = base
    y = base + 1e-6
    D = pairwise_distances(FeatureMatrix(x), FeatureMatrix(y))
    assert np.all(D >= 0.0)


def test_symmetry_under_argument_swap():
    a = random_matrix(5, 7, 3)
    b = random_matrix(6, 4, 3)
    np.testing.assert_array_equal(pairwise_distances(a, b), pairwise_distances(b, a).T)


@pytest.mark.parametrize("t", [0.0, 1e2, 1e4, 1e6, 1e8])
def test_translation_invariance(t):
    # inputs on a 2^-20 grid and an integer shift, so the shifted sets are
    # exact translates: only the kernel can move a distance, at any offset
    r = rng(7)
    x, y = (np.round(r.normal(size=s) * 2**20) / 2**20 for s in [(5, 2), (6, 2)])
    shift = np.round(r.normal(size=2) * t)
    xs, ys = x + shift, y + shift
    d0 = pairwise_distances(FeatureMatrix(x), FeatureMatrix(y))
    d1 = pairwise_distances(FeatureMatrix(xs), FeatureMatrix(ys))
    exact = np.sqrt(np.sum((xs[:, None, :] - ys[None, :, :]) ** 2, axis=2))
    assert np.abs(d1 - exact).max() <= 4 * np.finfo(float).eps * exact.max()
    np.testing.assert_allclose(d1, d0, rtol=1e-9, atol=1e-9)


def test_memory_stays_a_few_outputs_at_a_large_offset():
    # far from the origin every entry of the uncentred expansion is within
    # roundoff of zero, and recomputing them all takes an (n*m) x d array
    r = rng(8)
    x = FeatureMatrix(r.normal(size=(1000, 32)) + 1e6)
    y = FeatureMatrix(r.normal(size=(200, 32)) + 1e6)
    tracemalloc.start()
    try:
        D = pairwise_distances(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * D.nbytes


def test_feature_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        pairwise_distances(random_matrix(0, 3, 2), random_matrix(1, 3, 5))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.1, 10.0))
def test_scale_equivariance(seed, scale):
    r = rng(seed)
    x, y = r.normal(size=(4, 3)), r.normal(size=(5, 3))
    d0 = pairwise_distances(FeatureMatrix(x), FeatureMatrix(y))
    d1 = pairwise_distances(FeatureMatrix(x * scale), FeatureMatrix(y * scale))
    np.testing.assert_allclose(d1, d0 * scale, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("k", [-60, -40, -20, 20, 40, 60])
def test_scaling_by_a_power_of_two_scales_the_distances_exactly(k):
    # an absolute floor in the recompute test once sent every entry below unit
    # scale to the exact-difference path, which rounds otherwise than the Gram
    # expansion; the coincident pair takes that path at every scale
    r = rng(7)
    x, y = r.normal(size=(60, 16)), r.normal(size=(40, 16))
    y[0] = x[3]
    d0 = pairwise_distances(FeatureMatrix(x), FeatureMatrix(y))
    d1 = pairwise_distances(FeatureMatrix(np.ldexp(x, k)), FeatureMatrix(np.ldexp(y, k)))
    assert d0[3, 0] == 0.0
    np.testing.assert_array_equal(d1, np.ldexp(d0, k))
