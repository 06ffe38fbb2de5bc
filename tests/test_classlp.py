"""Class-weight LP vs the grid-search oracle, plus plan/weight invariants."""

import itertools

import numpy as np
import pytest

from otselect import (
    ClassWeights,
    FeatureMatrix,
    OtProblem,
    pairwise_distances,
    solve_class_weights,
    solve_exact_ot,
    wasserstein_distance,
    weights_to_sample_probabilities,
)
from otselect import classlp
from otselect.classlp import brute_force_class_weights
from otselect.errors import DimensionMismatch, TooManyClasses

from conftest import rng


def make_instance(seed, k, per_class, m, shift=0.5):
    r = rng(seed)
    counts = np.full(k, per_class)
    src = r.normal(size=(k * per_class, 2)) + np.repeat(r.normal(size=(k, 2)) * 2, per_class, axis=0)
    tgt = r.normal(size=(m, 2)) + shift
    D = pairwise_distances(FeatureMatrix(src), FeatureMatrix(tgt))
    return D, counts


def reweighted_objective(D, counts, w):
    """Price a weight vector directly: exact transport at the implied rows."""
    mu = weights_to_sample_probabilities(ClassWeights(w), np.repeat(np.arange(len(counts)), counts))
    keep = mu > 0
    m = D.shape[1]
    return wasserstein_distance(D[keep], mu[keep], np.full(m, 1.0 / m))


def test_lp_never_beaten_by_grid_search():
    for seed in range(12):
        D, counts = make_instance(seed, k=3, per_class=4, m=10)
        sol = solve_class_weights(D, counts)
        bf_w, bf_obj = brute_force_class_weights(D, counts, 0.05)
        assert sol.objective <= bf_obj + 1e-7
        # and the grid result can never beat the true optimum
        assert bf_obj >= sol.objective - 1e-9


def test_warm_grid_walk_matches_a_cold_walk_bit_for_bit():
    # gate 01's recipe, at its first three instances with k = 3; each grid
    # point is solved cold here, while the oracle warm-starts (and repairs)
    # every solve from the basis of the point before it
    instances = []
    for i in itertools.count():
        r = rng(1000 + i)
        k = int(r.integers(1, 4))
        hi = 24 if k == 3 else 30
        counts = np.minimum(r.integers(2, max(3, hi // k) + 1, size=k), 30 // k)
        m = int(r.integers(6, hi + 1))
        src = r.normal(size=(int(counts.sum()), 2))
        tgt = r.normal(size=(m, 2)) + r.normal(size=2)
        if k == 3:
            instances.append((pairwise_distances(FeatureMatrix(src), FeatureMatrix(tgt)), counts))
        if len(instances) == 3:
            break
    steps = 20
    for D, counts in instances:
        nu = np.full(D.shape[1], 1.0 / D.shape[1])
        best_obj, best_w = np.inf, None
        for comp in itertools.product(range(steps + 1), repeat=3):  # lexicographic
            if sum(comp) != steps:
                continue
            w = np.asarray(comp, dtype=np.float64) / steps
            obj = solve_exact_ot(OtProblem(D, np.repeat(w / counts, counts), nu)).objective
            if obj < best_obj:
                best_obj, best_w = obj, w
        bf_w, bf_obj = brute_force_class_weights(D, counts, 0.05)
        assert bf_obj == best_obj
        np.testing.assert_array_equal(bf_w.weights, best_w / best_w.sum())


def test_lp_weights_price_back_to_the_reported_objective():
    for seed in range(8):
        D, counts = make_instance(100 + seed, k=3, per_class=5, m=9)
        sol = solve_class_weights(D, counts)
        repriced = reweighted_objective(D, counts, sol.weights.weights)
        assert abs(repriced - sol.objective) <= 1e-7 * (1 + sol.objective)


def test_exact_recovery_when_target_is_one_class():
    r = rng(5)
    blocks = [r.normal(size=(4, 2)) + c for c in (0.0, 8.0, -8.0)]
    src = np.vstack(blocks)
    tgt = blocks[1].copy()
    D = pairwise_distances(FeatureMatrix(src), FeatureMatrix(tgt))
    sol = solve_class_weights(D, np.array([4, 4, 4]))
    assert sol.weights.weights[1] >= 1 - 1e-6
    assert sol.objective <= 1e-7
    bf_w, bf_obj = brute_force_class_weights(D, np.array([4, 4, 4]), 0.05)
    assert bf_obj <= 1e-7
    assert bf_w.weights[1] == 1.0


def test_weights_live_on_the_simplex_with_consistent_support():
    D, counts = make_instance(7, k=4, per_class=3, m=8)
    sol = solve_class_weights(D, counts)
    w = sol.weights.weights
    assert np.all(w >= 0)
    assert abs(w.sum() - 1) < 1e-9
    assert sol.support_size == int((w > 0).sum())


def test_plan_row_blocks_sum_to_class_weights():
    D, counts = make_instance(8, k=3, per_class=4, m=7)
    sol = solve_class_weights(D, counts)
    row_class = np.repeat(np.arange(3), counts)
    for i in range(3):
        block_mass = sol.plan.plan[row_class == i].sum()
        assert abs(block_mass - sol.weights.weights[i]) < 1e-9


def test_rows_within_a_class_share_equal_mass():
    D, counts = make_instance(9, k=2, per_class=5, m=6)
    sol = solve_class_weights(D, counts)
    row_sums = sol.plan.plan.sum(axis=1)
    for i in range(2):
        block = row_sums[np.repeat(np.arange(2), counts) == i]
        assert block.max() - block.min() < 1e-9


def test_duality_certificate_on_the_class_lp():
    for seed in range(6):
        D, counts = make_instance(30 + seed, k=3, per_class=4, m=9)
        sol = solve_class_weights(D, counts)
        assert sol.plan.dual_gap <= 1e-7 * (1 + abs(sol.objective))


def test_single_class_gets_weight_one():
    D, counts = make_instance(10, k=1, per_class=6, m=5)
    sol = solve_class_weights(D, counts)
    np.testing.assert_allclose(sol.weights.weights, [1.0])
    bf_w, bf_obj = brute_force_class_weights(D, counts, 0.5)
    assert abs(bf_obj - sol.objective) < 1e-9


def full_lp(D, counts):
    """The class LP over every plan cell, whatever the instance size."""
    return classlp._solve_on_cells(D, counts, np.ones(D.shape, dtype=bool))[0]


def test_starved_candidate_set_is_priced_back_to_the_optimum():
    # staircases alone are feasible but far from optimal: pricing must add cells
    for seed in range(3):
        D, counts = make_instance(40 + seed, k=3, per_class=20, m=40)
        sol, rounds = classlp._solve_on_cells(D, counts, classlp._staircases(counts, 40))
        exact = solve_class_weights(D, counts)
        assert rounds >= 2
        assert abs(sol.objective - exact.objective) <= 1e-9 * exact.objective
        assert sol.plan.dual_gap <= 1e-9 * (1 + sol.objective)


def test_restricted_lp_matches_the_full_lp_on_duplicate_rows_and_one_class():
    # 252 x 200 = 50,400 cells: above the size where the candidate set is used
    D, counts = make_instance(50, k=6, per_class=42, m=200)
    D[1::2] = D[0::2]  # every odd source row repeats the row before it
    D_one, counts_one = make_instance(51, k=1, per_class=252, m=200)
    for D, counts in ((D, counts), (D_one, counts_one)):
        assert D.size > classlp._RESTRICTED_MIN_CELLS
        sol = solve_class_weights(D, counts)
        exact = full_lp(D, counts)
        assert abs(sol.objective - exact.objective) <= 1e-9 * exact.objective
        assert sol.plan.dual_gap <= 1e-7 * (1 + sol.objective)
        row_sums = sol.plan.plan.sum(axis=1)
        np.testing.assert_allclose(row_sums, np.repeat(sol.weights.weights / counts, counts),
                                   atol=1e-9)
        np.testing.assert_allclose(sol.plan.plan.sum(axis=0), 1 / 200, atol=1e-9)


def test_sinkhorn_routing_for_oversized_instances():
    D, counts = make_instance(11, k=2, per_class=4, m=6)
    routed = solve_class_weights(D, counts, sinkhorn_threshold=10)
    exact = solve_class_weights(D, counts, sinkhorn_threshold=None)
    assert abs(routed.objective - exact.objective) <= 0.05 * (1 + exact.objective)
    assert abs(routed.weights.weights.sum() - 1) < 1e-9


def test_brute_force_rejects_wide_problems_and_bad_grids():
    D = np.ones((10, 4))
    with pytest.raises(TooManyClasses):
        brute_force_class_weights(D, np.array([2, 2, 2, 2, 2]), 0.5)
    with pytest.raises(ValueError):
        brute_force_class_weights(D, np.array([5, 5]), 0.0)


def test_input_validation():
    with pytest.raises(DimensionMismatch):
        solve_class_weights(np.ones((5, 3)), np.array([2, 2]))  # counts sum 4 != 5 rows
    with pytest.raises(DimensionMismatch):
        weights_to_sample_probabilities(ClassWeights(np.array([0.5, 0.5])), np.array([0, 1, 2]))


def test_sample_probabilities_spread_weight_uniformly_within_class():
    labels = np.array([0, 0, 0, 1])
    probs = weights_to_sample_probabilities(ClassWeights(np.array([0.6, 0.4])), labels)
    np.testing.assert_allclose(probs, [0.2, 0.2, 0.2, 0.4])
    assert abs(probs.sum() - 1) < 1e-12


def test_zero_weight_class_gets_zero_probability():
    labels = np.array([0, 0, 1, 1])
    probs = weights_to_sample_probabilities(ClassWeights(np.array([1.0, 0.0])), labels)
    np.testing.assert_allclose(probs, [0.5, 0.5, 0.0, 0.0])
