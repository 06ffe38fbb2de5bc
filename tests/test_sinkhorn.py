"""Entropic solver: feasibility of the rounded plan and agreement with the LP."""

import numpy as np
import pytest
from scipy.special import logsumexp

import otselect.sinkhorn
from otselect import (FeatureMatrix, SinkhornConfig, pairwise_distances,
                      run_verification_suite, sinkhorn_class_weights, solve_class_weights)
from otselect.errors import DimensionMismatch
from otselect.sinkhorn import _logsumexp

from test_classlp import make_instance


def feasibility_errors(sol, counts):
    P = sol.plan.plan
    m = P.shape[1]
    col_dev = np.abs(P.sum(axis=0) - 1.0 / m).max()
    row_sums = P.sum(axis=1)
    row_class = np.repeat(np.arange(len(counts)), counts)
    spread = max(float(np.ptp(row_sums[row_class == i])) for i in range(len(counts)))
    return col_dev, spread


def gate03_instance(i):
    """The i-th instance of acceptance gate 03 (mixed k, n and m)."""
    r = np.random.default_rng(3000 + i)
    k = int(r.integers(2, 5))
    counts = np.minimum(r.integers(3, max(4, 60 // k) + 1, size=k), 60 // k)
    m = int(r.integers(8, 61))
    src = r.normal(size=(int(counts.sum()), 2)) * 2
    tgt = r.normal(size=(m, 2)) + r.normal(size=2)
    return pairwise_distances(FeatureMatrix(src), FeatureMatrix(tgt)), counts


@pytest.fixture(scope="module")
def small_epsilon_solves():
    """(name, exact LP, Sinkhorn) for gate 03's 50 instances at
    eps = 0.001 * mean(D) and for the 8 Sinkhorn solves of the default
    ``otselect verify`` run, seed 0, which include a 9x4 instance with LP
    weights [0.25, 0.75, 0] that the loop alone does not solve in 80k
    iterations."""
    solves = []
    for i in range(50):
        D, counts = gate03_instance(i)
        cfg = SinkhornConfig(epsilon=0.001 * float(D.mean()))
        solves.append((f"gate03-{i}", D, counts, sinkhorn_class_weights(D, counts, cfg)))
    seen = []

    def recording(D, counts, cfg=None):
        seen.append((D, counts, sinkhorn_class_weights(D, counts, cfg)))
        return seen[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(otselect.sinkhorn, "sinkhorn_class_weights", recording)
        run_verification_suite(0, 1000)
    assert len(seen) == 8 and (9, 4) in [D.shape for D, _, _ in seen]
    solves += [(f"verify-{i}", *rec) for i, rec in enumerate(seen)]
    return [(name, solve_class_weights(D, counts), ent) for name, D, counts, ent in solves]


def test_no_small_epsilon_solve_hits_the_iteration_cap(small_epsilon_solves):
    for name, _, ent in small_epsilon_solves:
        assert ent.converged, name
        assert ent.warning is None, f"{name}: {ent.warning}"


def test_certified_gap_brackets_the_lp(small_epsilon_solves):
    # the LP optimum lies in [lp - lp_gap, lp] and, by weak duality, in
    # [objective - dual_gap, objective]; the two intervals must meet
    for name, lp, ent in small_epsilon_solves:
        gap = ent.plan.dual_gap
        assert gap is not None and 0.0 <= gap < np.inf, name
        roundoff = 1e-12 * (1.0 + lp.objective)
        assert ent.objective - gap <= lp.objective + roundoff, name
        assert lp.objective - lp.plan.dual_gap <= ent.objective + roundoff, name


def test_rounded_plan_is_feasible():
    # 1e-4 * max(D) with no schedule is the case a scaling kernel exp(-D/eps)
    # cannot represent: it starts and stays at a tiny epsilon
    for seed in range(6):
        D, counts = make_instance(seed, k=3, per_class=5, m=12)
        for eps in (1e-4 * D.max(), 0.05 * D.max(), 0.05 * D.mean(), 0.5 * D.mean()):
            for schedule in (0.9, None):
                cfg = SinkhornConfig(epsilon=eps, epsilon_schedule=schedule)
                sol = sinkhorn_class_weights(D, counts, cfg)
                col_dev, spread = feasibility_errors(sol, counts)
                assert np.all(sol.plan.plan >= 0)
                assert col_dev <= 1e-9
                assert spread <= 1e-6
                assert abs(sol.weights.weights.sum() - 1) < 1e-9


def test_epsilon_scaling_changes_the_path_not_the_answer():
    for i in range(5):
        D, counts = gate03_instance(i)
        eps = 0.05 * float(D.max())
        scaled = sinkhorn_class_weights(D, counts, SinkhornConfig(epsilon=eps))
        direct = sinkhorn_class_weights(D, counts, SinkhornConfig(epsilon=eps, epsilon_schedule=None))
        assert scaled.converged and direct.converged
        assert abs(scaled.objective - direct.objective) <= 1e-6 * abs(direct.objective)
        np.testing.assert_allclose(scaled.weights.weights, direct.weights.weights, rtol=0, atol=1e-6)


def test_epsilon_levels_end_once_the_marginal_is_met():
    # a fixed 100 iterations per level would need 7 levels (0.9**7 < 0.5)
    # to get from 0.1 * max(D) down to this target, so 300 could not converge
    for i in range(5):
        D, counts = gate03_instance(i)
        cfg = SinkhornConfig(epsilon=0.05 * float(D.max()), max_iters=300)
        sol = sinkhorn_class_weights(D, counts, cfg)
        assert sol.converged, f"instance {i}"
        assert sol.warning is None


def test_objective_approaches_lp_as_epsilon_shrinks():
    D, counts = make_instance(50, k=3, per_class=6, m=14)
    lp = solve_class_weights(D, counts).objective
    coarse = sinkhorn_class_weights(D, counts, SinkhornConfig(epsilon=0.5 * D.mean())).objective
    fine = sinkhorn_class_weights(D, counts, SinkhornConfig(epsilon=0.001 * D.mean())).objective
    assert abs(fine - lp) <= abs(coarse - lp) + 1e-9
    assert abs(fine - lp) <= 0.05 * (1 + lp)


def test_small_epsilon_uses_stable_arithmetic():
    # tiny regularization underflows a naive scaling kernel
    D, counts = make_instance(51, k=2, per_class=5, m=10)
    sol = sinkhorn_class_weights(D, counts, SinkhornConfig(epsilon=1e-4 * D.max()))
    assert np.isfinite(sol.objective)
    col_dev, spread = feasibility_errors(sol, counts)
    assert col_dev <= 1e-9
    assert spread <= 1e-6


def test_nonconvergence_is_a_flag_not_an_exception():
    D, counts = make_instance(52, k=3, per_class=5, m=12)
    sol = sinkhorn_class_weights(D, counts, SinkhornConfig(epsilon=0.001 * D.mean(), max_iters=3))
    assert sol.converged is False
    assert sol.warning
    # the rounded plan must still be feasible
    col_dev, spread = feasibility_errors(sol, counts)
    assert col_dev <= 1e-9
    assert spread <= 1e-6


def test_deterministic_given_config():
    D, counts = make_instance(53, k=2, per_class=4, m=9)
    cfg = SinkhornConfig(epsilon=0.01 * D.mean())
    a = sinkhorn_class_weights(D, counts, cfg)
    b = sinkhorn_class_weights(D, counts, cfg)
    np.testing.assert_array_equal(a.plan.plan, b.plan.plan)
    assert a.objective == b.objective


def test_default_epsilon_is_chosen_from_the_cost_scale():
    D, counts = make_instance(54, k=2, per_class=4, m=8)
    sol = sinkhorn_class_weights(D, counts)  # no epsilon given
    assert np.isfinite(sol.objective)
    assert abs(sol.weights.weights.sum() - 1) < 1e-9


def test_matches_exact_recovery_fixture():
    rng = np.random.default_rng(3)
    blocks = [rng.normal(size=(5, 2)) + c for c in (0.0, 9.0)]
    src = np.vstack(blocks)
    tgt = blocks[0].copy()
    D = pairwise_distances(FeatureMatrix(src), FeatureMatrix(tgt))
    sol = sinkhorn_class_weights(D, np.array([5, 5]), SinkhornConfig(epsilon=0.001 * D.mean()))
    assert sol.weights.weights[0] >= 0.99
    assert sol.objective <= 0.05


def test_inline_logsumexp_matches_scipy():
    # (f - D) / eps reaches magnitudes near 1e5 at the smallest epsilons used
    r = np.random.default_rng(7)
    for scale in (1.0, 1e3, 1e5):
        a = r.normal(size=(37, 23)) * scale
        for x, axis in ((a, 0), (a, 1), (a[:, 0], None)):
            want = logsumexp(x, axis=axis)
            got = _logsumexp(x, axis=axis)
            assert np.shape(got) == np.shape(want)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        sinkhorn_class_weights(np.ones((4, 3)), np.array([3, 3]))


def test_config_validation():
    with pytest.raises(ValueError):
        SinkhornConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        SinkhornConfig(max_iters=0)
    with pytest.raises(ValueError):
        SinkhornConfig(tol=0.0)
