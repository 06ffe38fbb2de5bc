"""Entropic solver: feasibility of the rounded plan and agreement with the LP."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import otselect.bounds
import otselect.sinkhorn
from otselect import (FeatureMatrix, SinkhornConfig, pairwise_distances,
                      run_verification_suite, sinkhorn_class_weights, solve_class_weights)
from otselect.errors import DimensionMismatch
from otselect.sinkhorn import _logsumexp, _round_to_polytope

from conftest import gate03_instance
from test_classlp import make_instance


def feasibility_errors(sol, counts):
    P = sol.plan.plan
    m = P.shape[1]
    col_dev = np.abs(P.sum(axis=0) - 1.0 / m).max()
    row_sums = P.sum(axis=1)
    row_class = np.repeat(np.arange(len(counts)), counts)
    spread = max(float(np.ptp(row_sums[row_class == i])) for i in range(len(counts)))
    return col_dev, spread


def count_logsumexp(mp):
    """Route the loop's ``_logsumexp`` through a counter; return the
    one-entry list that holds the number of calls."""
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return _logsumexp(*args, **kwargs)

    mp.setattr(otselect.sinkhorn, "_logsumexp", counting)
    return calls


@pytest.fixture(scope="module")
def gate03_small_epsilon():
    """(name, D, counts, Sinkhorn) for gate 03's 50 instances at
    eps = 0.001 * mean(D), and the number of ``_logsumexp`` calls the 50
    solves made."""
    solves = []
    with pytest.MonkeyPatch.context() as mp:
        calls = count_logsumexp(mp)
        for i in range(50):
            D, counts = gate03_instance(i)
            cfg = SinkhornConfig(epsilon=0.001 * float(D.mean()))
            solves.append((f"gate03-{i}", D, counts, sinkhorn_class_weights(D, counts, cfg)))
    return solves, calls[0]


@pytest.fixture(scope="module")
def small_epsilon_solves(gate03_small_epsilon):
    """(name, exact LP, Sinkhorn) for gate 03's 50 instances at
    eps = 0.001 * mean(D) and for the 8 Sinkhorn solves of the default
    ``otselect verify`` run, seed 0, which include a 9x4 instance with LP
    weights [0.25, 0.75, 0] that the loop alone does not solve in 80k
    iterations."""
    solves = list(gate03_small_epsilon[0])
    seen = []

    def recording(D, counts, cfg=None):
        seen.append((D, counts, sinkhorn_class_weights(D, counts, cfg)))
        return seen[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(otselect.bounds, "sinkhorn_class_weights", recording)
        run_verification_suite(0, 1000)
    assert len(seen) == 8 and (9, 4) in [D.shape for D, _, _ in seen]
    solves += [(f"verify-{i}", *rec) for i, rec in enumerate(seen)]
    return [(name, solve_class_weights(D, counts), ent) for name, D, counts, ent in solves]


def test_no_small_epsilon_solve_hits_the_iteration_cap(small_epsilon_solves):
    for name, _, ent in small_epsilon_solves:
        assert ent.converged, name
        assert ent.warning is None, f"{name}: {ent.warning}"


def test_small_epsilon_loop_work_stays_bounded(gate03_small_epsilon):
    # the loop makes three _logsumexp calls per iteration (one more at a
    # check that ends it) and the Newton finish none; with a 1e-4 level tolerance,
    # Newton after 50 iterations and schedule 0.9 these solves took 147,841
    _, calls = gate03_small_epsilon
    assert calls / 3 <= 20_000


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
    # 1e-4 * max(D) is the case a scaling kernel exp(-D/eps) cannot
    # represent: the loop ends at a tiny epsilon
    for seed in range(6):
        D, counts = make_instance(seed, k=3, per_class=5, m=12)
        for eps in (1e-4 * D.max(), 0.05 * D.max(), 0.05 * D.mean(), 0.5 * D.mean()):
            sol = sinkhorn_class_weights(D, counts, SinkhornConfig(epsilon=eps))
            col_dev, spread = feasibility_errors(sol, counts)
            assert np.all(sol.plan.plan >= 0)
            assert col_dev <= 1e-9
            assert spread <= 1e-6
            assert abs(sol.weights.weights.sum() - 1) < 1e-9


def perturbed_plan(counts, m, seed, noise, duplicate, zero_class, zero_column):
    """A class-tied product plan (random class weights, column sums 1/m)
    whose entries are scaled by exp(noise * N(0, 1)). ``duplicate`` copies
    row 0 to row 1; ``zero_class`` empties the last class and ``zero_column``
    column 0 (each only when something else keeps mass)."""
    r = np.random.default_rng(seed)
    counts = np.asarray(counts)
    w = r.dirichlet(np.ones(counts.size))
    P = np.outer(np.repeat(w / counts, counts), np.full(m, 1.0 / m))
    P *= np.exp(noise * r.normal(size=P.shape))
    if duplicate and P.shape[0] > 1:
        P[1] = P[0]
    if zero_class and counts.size > 1:
        P[-counts[-1]:] = 0.0
    if zero_column and m > 1:
        P[:, 0] = 0.0
    return P, counts


@settings(max_examples=300, deadline=None)
@given(st.builds(perturbed_plan, counts=st.lists(st.integers(1, 6), min_size=1, max_size=4),
                 m=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
                 noise=st.sampled_from([0.0, 1e-9, 1e-3, 0.3, 3.0]), duplicate=st.booleans(),
                 zero_class=st.booleans(), zero_column=st.booleans()))
@example(perturbed_plan([5], 7, 0, 0.3, False, False, False))  # one class
@example(perturbed_plan([1, 1, 1], 4, 1, 0.3, False, False, False))  # one row per class
@example(perturbed_plan([3, 2], 1, 2, 0.3, False, False, False))  # one target point
@example(perturbed_plan([3, 3], 5, 3, 0.3, True, True, True))  # duplicates, empty class and column
def test_rounding_is_feasible_and_within_its_bound(plan):
    P, counts = plan
    m = P.shape[1]
    row_class = np.repeat(np.arange(counts.size), counts)
    Q = _round_to_polytope(P, counts, row_class)
    r = P.sum(axis=1)
    a = np.bincount(row_class, weights=r)[row_class] / counts[row_class] / r.sum()
    assert Q.min() >= 0.0
    assert np.abs(Q.sum(axis=0) - 1.0 / m).max() <= 1e-15
    q = Q.sum(axis=1)
    assert all(np.ptp(q[row_class == c]) <= 1e-15 for c in range(counts.size))
    # Altschuler, Weed & Rigollet 2017, Lemma 7
    bound = 2.0 * (np.abs(r - a).sum() + np.abs(P.sum(axis=0) - 1.0 / m).sum())
    assert np.abs(Q - P).sum() <= bound + 1e-15


@pytest.mark.parametrize("k", range(-12, 13, 3))
@pytest.mark.parametrize("classes, per_class, m", [(3, 10, 20), (4, 30, 60)],
                         ids=["30x20", "120x60"])
def test_entropic_objective_scales_with_the_cost(classes, per_class, m, k):
    # the Newton system must not mix entries of 1/eps with its unit
    # class-constraint block, whose solve degrades below about 1e-10 * D
    D, counts = make_instance(60, classes, per_class, m)
    base = sinkhorn_class_weights(D, counts).objective
    sol = sinkhorn_class_weights(10.0**k * D, counts)
    assert sol.warning is None
    assert abs(sol.objective - 10.0**k * base) <= 1e-12 * 10.0**k * base


def test_epsilon_levels_end_once_the_marginal_is_met():
    # halving from 0.1 * max(D) passes five levels above this target, so a
    # fixed 100 iterations per level would spend 500 before it and 300 could
    # not converge
    for i in range(5):
        D, counts = gate03_instance(i)
        cfg = SinkhornConfig(epsilon=0.1 * 0.5**5 * float(D.max()), max_iters=300)
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


def test_nonconvergence_warning_counts_the_iterations_spent(monkeypatch):
    # one Newton step cannot finish; the warning must count the loop
    # iterations and that step, not the cap
    monkeypatch.setattr(otselect.sinkhorn, "_NEWTON_STEPS", 1)
    calls = count_logsumexp(monkeypatch)
    D, counts = gate03_instance(0)
    sol = sinkhorn_class_weights(D, counts, SinkhornConfig(epsilon=0.001 * float(D.mean())))
    assert not sol.converged and calls[0] % 3 == 1  # the loop broke for the handoff
    assert sol.warning.endswith(f"after {calls[0] // 3 + 1} iterations")


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_potentials_follow_the_cost_dtype(dtype):
    # the exact LP's candidate seed runs the loop in float32: no float64
    # constant may promote it back, and the entropic solver stays in float64
    D, counts = make_instance(55, k=3, per_class=20, m=40)
    row_class = np.repeat(np.arange(counts.size), counts)
    cfg = SinkhornConfig(epsilon=1e-3 * D.mean(), max_iters=40, tol=1e-2)
    f, g, *_ = otselect.sinkhorn._sinkhorn_potentials(D.astype(dtype), counts, row_class, cfg)
    assert f.dtype == g.dtype == dtype
    assert np.isfinite(f).all() and np.isfinite(g).all()


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
    # the cap feeds range(): a float must fail here, not inside the solve
    for bad in (2.5, 3.0, "10"):
        with pytest.raises(ValueError, match="max_iters"):
            SinkhornConfig(max_iters=bad)
    assert SinkhornConfig(max_iters=np.int64(3)).max_iters == 3
