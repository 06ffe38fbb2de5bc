"""Class-weight LP vs the grid-search oracle, plus plan/weight invariants."""

import itertools
import os
import subprocess
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otselect import (
    ClassWeights,
    FeatureMatrix,
    OtProblem,
    build_scenario,
    default_dda_matrix,
    pairwise_distances,
    sinkhorn_class_weights,
    solve_class_weights,
    solve_exact_ot,
    wasserstein_distance,
    weights_to_sample_probabilities,
)
from otselect import classlp, ot, sinkhorn
from otselect.classlp import brute_force_class_weights
from otselect.errors import DimensionMismatch, SolverFailure, TooManyClasses
from otselect.ot import _least_cost_start
from otselect.pipeline import sort_by_class

from conftest import gate01_instance, gate03_instance, rng


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


def cold_grid_argmin(D, counts, steps):
    """The grid oracle's answer with every point solved cold, in lexicographic
    order, so the first of equal objectives wins."""
    nu = np.full(D.shape[1], 1.0 / D.shape[1])
    best_obj, best_w = np.inf, None
    for comp in itertools.product(range(steps + 1), repeat=len(counts)):
        if sum(comp) != steps:
            continue
        w = np.asarray(comp, dtype=np.float64) / steps
        obj = solve_exact_ot(OtProblem(D, np.repeat(w / counts, counts), nu)).objective
        if obj < best_obj:
            best_obj, best_w = obj, w
    return best_w / best_w.sum(), best_obj


def test_lp_never_beaten_by_grid_search():
    for seed in range(12):
        D, counts = make_instance(seed, k=3, per_class=4, m=10)
        sol = solve_class_weights(D, counts)
        bf_w, bf_obj = brute_force_class_weights(D, counts, 0.05)
        assert sol.objective <= bf_obj + 1e-7
        # and the grid result can never beat the true optimum
        assert bf_obj >= sol.objective - 1e-9


def test_warm_grid_walk_matches_a_cold_walk_bit_for_bit():
    # gate 01's first three instances at each k from 1 to 3; each grid point
    # is solved cold here, while the oracle warm-starts (and repairs) every
    # solve from the basis of the point before it
    for k in (1, 2, 3):
        instances = (inst for inst in map(gate01_instance, itertools.count())
                     if inst[1].size == k)
        for D, counts in itertools.islice(instances, 3):
            best_w, best_obj = cold_grid_argmin(D, counts, 20)
            bf_w, bf_obj = brute_force_class_weights(D, counts, 0.05)
            assert bf_obj == best_obj, k
            np.testing.assert_array_equal(bf_w.weights, best_w)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_serpentine_walk_moves_one_unit_per_step_over_every_grid_point(k):
    for steps in range(1, 9):
        walk = list(classlp._grid_walk(k, steps))
        lexicographic = [c for c in itertools.product(range(steps + 1), repeat=k)
                         if sum(c) == steps]
        assert sorted(walk) == lexicographic  # each point exactly once
        for a, b in zip(walk, walk[1:]):
            assert sum(abs(x - y) for x, y in zip(a, b)) == 2, (steps, a, b)
        # the backward walk, which the sub-walks at odd leading entries run,
        # is exactly the forward one reversed
        assert list(classlp._grid_walk(k, steps, reverse=True)) == walk[::-1]


def test_grid_ties_go_to_the_first_point_in_lexicographic_order(monkeypatch):
    # (1, 3, 0) and (1, 0, 3) price the same; the serpentine walk runs its
    # tail backwards at the odd leading entry 1, so it meets (1, 3, 0) first
    walk = list(classlp._grid_walk(3, 4))
    assert walk.index((1, 3, 0)) < walk.index((1, 0, 3))
    tied = {(0.25, 0.75, 0.0), (0.25, 0.0, 0.75)}

    def planted(mu):
        return 0.5 if tuple(mu.tolist()) in tied else 1.0

    def solve(C, mu, nu, tree):  # every cell basic, at the product plan
        bi, bj = np.indices(C.shape).reshape(2, -1)
        # zero potentials and c-transform: a cut of 0 rules out no planted objective
        stub = types.SimpleNamespace(pot=[0.0] * sum(C.shape), g=np.zeros(C.shape[1]))
        return bi, bj, np.outer(mu, nu).ravel(), planted(mu), 0.0, stub

    monkeypatch.setattr(classlp, "_solve", solve)
    w, obj = brute_force_class_weights(np.ones((3, 2)), np.ones(3, dtype=np.int64), 0.25)
    assert obj == 0.5
    np.testing.assert_array_equal(w.weights, [0.25, 0.0, 0.75])


def test_warm_four_class_grid_walk_matches_a_cold_walk():
    # the serpentine order recurses deepest at k = 4; every point is solved
    # cold here and the first of equal objectives in lexicographic order wins
    r = rng(77)
    counts = np.array([4, 3, 5, 4])
    D = pairwise_distances(FeatureMatrix(r.normal(size=(16, 2))),
                           FeatureMatrix(r.normal(size=(10, 2)) + 0.3))
    best_w, best_obj = cold_grid_argmin(D, counts, 8)
    bf_w, bf_obj = brute_force_class_weights(D, counts, 0.125)
    assert bf_obj == best_obj
    np.testing.assert_array_equal(bf_w.weights, best_w)


def every_point_walk(D, counts, steps):
    """The grid oracle with every point solved: the serpentine walk's carried
    tree through ``ot._solve`` at each point, ranked as the oracle ranks."""
    nu = np.full(D.shape[1], 1.0 / D.shape[1])
    best, tree = (np.inf, ()), None
    for comp in classlp._grid_walk(counts.size, steps):
        mu = np.repeat(np.asarray(comp, dtype=np.float64) / steps / counts, counts)
        _, _, _, objective, _, tree = ot._solve(D, mu, nu, tree)
        best = min(best, (objective, comp))
    w = np.asarray(best[1], dtype=np.float64) / steps
    return w / w.sum(), best[0]


def spied_grid_solves(monkeypatch):
    """Patch ``classlp._solve`` to record the objective and the mu of every
    solve the oracle makes; returns that list."""
    solve, made = classlp._solve, []

    def spied(C, mu, nu, tree):
        out = solve(C, mu, nu, tree)
        made.append((out[3], mu))
        return out

    monkeypatch.setattr(classlp, "_solve", spied)
    return made


def test_grid_walk_ranks_every_point_by_its_certified_objective(monkeypatch):
    # with integer costs over 3 many grid points tie up to rounding: the
    # oracle must return the least (objective, point) over the solves it made,
    # the first of equal objectives in lexicographic order winning, and every
    # point it skipped must cost strictly more
    made = spied_grid_solves(monkeypatch)
    for seed in range(88, 96):
        r = rng(seed)
        counts = r.integers(2, 12, size=3)
        m = int(r.integers(3, 20))
        D = r.integers(0, 4, size=(int(counts.sum()), m)) / 3
        nu = np.full(m, 1.0 / m)
        starts = np.cumsum(counts) - counts
        made.clear()
        w, obj = brute_force_class_weights(D, counts, 0.05)
        solved = {tuple(np.rint(mu[starts] * counts * 20).astype(int).tolist()): objective
                  for objective, mu in made}
        assert len(solved) == len(made), seed  # no point is solved twice
        best = min((objective, comp) for comp, objective in solved.items())
        assert obj == best[0], seed
        want = np.asarray(best[1], dtype=np.float64) / 20
        assert w.weights.tobytes() == (want / want.sum()).tobytes(), seed
        skipped = [comp for comp in classlp._grid_walk(3, 20) if comp not in solved]
        assert skipped, seed
        for comp in skipped:
            mu = np.repeat(np.asarray(comp, dtype=np.float64) / 20 / counts, counts)
            assert solve_exact_ot(OtProblem(D, mu, nu)).objective > obj, (seed, comp)


def test_the_screened_walk_matches_the_every_point_walk_bit_for_bit():
    # costs with no ties: skipping the points that the lower envelope rules
    # out must leave the weights and the objective of solving every point
    r = rng(41)
    counts4 = np.array([4, 3, 5, 4])
    D4 = pairwise_distances(FeatureMatrix(r.normal(size=(16, 2))),
                            FeatureMatrix(r.normal(size=(10, 2)) + 0.3))
    D1, counts1 = make_instance(42, k=1, per_class=6, m=8)
    Dm, countsm = make_instance(43, k=3, per_class=5, m=1)  # one target point
    D3, counts3 = gate01_instance(0)
    cases = [(*gate01_instance(i), 50) for i in range(30)]
    cases += [(D4, counts4, 8), (D1, counts1, 50), (Dm, countsm, 50)]
    cases += [(np.ldexp(D, e), counts, steps) for e in (-40, 40)
              for D, counts, steps in ((D3, counts3, 50), (D4, counts4, 8))]
    for i, (D, counts, steps) in enumerate(cases):
        want_w, want_obj = every_point_walk(D, counts, steps)
        w, obj = brute_force_class_weights(D, counts, 1 / steps)
        assert obj == want_obj, i
        assert w.weights.tobytes() == want_w.tobytes(), i


def test_the_lower_envelope_rules_out_most_grid_points(monkeypatch):
    # the first k = 3 instance of gate 01 has 1,326 grid points at step 0.02;
    # a walk that stopped skipping would solve them all
    made = spied_grid_solves(monkeypatch)
    D, counts = next(inst for inst in map(gate01_instance, itertools.count())
                     if inst[1].size == 3)
    brute_force_class_weights(D, counts, 0.02)
    assert 1 <= len(made) <= 1326 // 4


def test_a_repair_past_n_plus_m_pivots_restarts_cold_and_keeps_the_cold_argmin(monkeypatch):
    # integer costs in {0..3} make the walk's bases so degenerate that a dual
    # repair can run past n + m pivots; it gives up and the point starts cold
    r = rng(5)
    counts = r.integers(3, 15, size=3)
    m = int(r.integers(8, 25))
    D = r.integers(0, 4, size=(int(counts.sum()), m)).astype(float)
    starts = []

    def counted(*args):
        starts.append(args)
        return _least_cost_start(*args)

    monkeypatch.setattr(ot, "_least_cost_start", counted)
    bf_w, bf_obj = brute_force_class_weights(D, counts, 0.05)
    assert len(starts) >= 2  # the walk's first point and at least one restart
    best_w, best_obj = cold_grid_argmin(D, counts, 20)
    assert bf_obj == best_obj
    np.testing.assert_array_equal(bf_w.weights, best_w)


def test_carried_potentials_stay_exact_on_the_basis_over_a_whole_walk(monkeypatch):
    # the walk carries one tree's potentials through every pivot instead of
    # deriving them from the cost at each point: they must not drift
    D, counts = next(inst for inst in map(gate01_instance, itertools.count())
                     if inst[1].size == 3)
    solve, drift = classlp._solve, []

    def checked(C, mu, nu, tree):
        out = solve(C, mu, nu, tree)
        t = out[-1]
        uv = np.array(t.pot)
        drift.append(np.abs(uv[t.bi] + uv[t.n + np.array(t.bj)] - C[t.bi, t.bj]).max())
        return out

    monkeypatch.setattr(classlp, "_solve", checked)
    brute_force_class_weights(D, counts, 0.02)
    assert 1 <= len(drift) < 1326  # one entry per solve; the skipped points make none
    assert max(drift) <= 1e-12 * D.max()


def test_grid_walk_refuses_a_point_stopped_short_of_the_optimum(monkeypatch):
    # pricing that hides the negative reduced costs stops every solve where
    # it starts; the certificate of each grid point must refuse that
    D, counts = make_instance(4, k=3, per_class=4, m=9)
    reduced_costs = ot._reduced_costs
    monkeypatch.setattr(ot, "_reduced_costs", lambda C, tree, out: np.maximum(
        reduced_costs(C, tree, out), 0.0, out=out))
    with pytest.raises(SolverFailure, match="duality gap"):
        brute_force_class_weights(D, counts, 0.05)


def test_each_set_of_potentials_is_priced_and_certified_once(monkeypatch):
    # the walk makes no pivot at most grid points; those points must reuse
    # the reduced costs and the c-transform that their tree already holds
    D, counts = next(inst for inst in map(gate01_instance, itertools.count())
                     if inst[1].size == 3)
    calls = {"priced": 0, "c_transform": 0, "pivots": 0, "points": 0}

    def counted(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(ot, "_reduced_costs", counted("priced", ot._reduced_costs))
    monkeypatch.setattr(ot, "_c_transform", counted("c_transform", ot._c_transform))
    monkeypatch.setattr(ot._Tree, "pivot", counted("pivots", ot._Tree.pivot))
    monkeypatch.setattr(classlp, "_solve", counted("points", classlp._solve))
    brute_force_class_weights(D, counts, 0.02)
    assert calls["points"] < 1326  # the solves made; the lower envelope skips the rest
    assert 1 <= calls["priced"] <= calls["pivots"] + 1, calls
    assert 1 <= calls["c_transform"] <= calls["pivots"] + 1, calls


def test_a_grid_point_without_a_pivot_allocates_no_n_by_m_array(monkeypatch):
    # a 100 x 100 cost on a fine grid, where many points need no pivot: a
    # point solved without one must allocate less than one n x m array between
    # the start of one point and the start of the next
    r = rng(0)
    D = pairwise_distances(FeatureMatrix(r.normal(size=(100, 2))),
                           FeatureMatrix(r.normal(size=(100, 2)) + 0.3))
    done = {"pivots": 0, "points": 0}
    points = list(classlp._grid_walk(2, 500))
    peaks = []

    def counted(name, f):
        def wrapped(*args):
            done[name] += 1
            return f(*args)
        return wrapped

    def traced(k, steps):
        for comp in points:
            before = dict(done)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            yield comp
            if done == {**before, "points": before["points"] + 1}:  # solved, no pivot
                peaks.append(tracemalloc.get_traced_memory()[1] - start)

    monkeypatch.setattr(ot._Tree, "pivot", counted("pivots", ot._Tree.pivot))
    monkeypatch.setattr(classlp, "_solve", counted("points", classlp._solve))
    monkeypatch.setattr(classlp, "_grid_walk", traced)
    tracemalloc.start()
    try:
        brute_force_class_weights(D, np.array([50, 50]), 1 / 500)
    finally:
        tracemalloc.stop()
    assert len(peaks) >= 100
    assert max(peaks) < D.size * 8


@pytest.mark.parametrize("seed", range(4))
def test_cached_pricing_stays_coherent_over_random_walks(monkeypatch, seed):
    # one tree carried over a whole serpentine walk: whatever it caches must
    # be what a fresh pass over its potentials would give, bit for bit
    r = rng(900 + seed)
    k = 3 + seed % 2
    counts = r.integers(2, 6, size=k)
    D = pairwise_distances(FeatureMatrix(r.normal(size=(int(counts.sum()), 2))),
                           FeatureMatrix(r.normal(size=(int(r.integers(5, 13)), 2)) + 0.5))
    solve, seen = classlp._solve, {"rc": 0, "g": 0, "order": 0}

    def checked(C, mu, nu, tree):
        out = solve(C, mu, nu, tree)
        t = out[-1]
        uv = np.array(t.pot)
        u, v = uv[:t.n], uv[t.n:]
        if t.rc is not None:
            seen["rc"] += 1
            assert t.rc.tobytes() == (C - u[:, None] - v[None, :]).tobytes()
        if t.g is not None:
            seen["g"] += 1
            assert t.g.tobytes() == ot._c_transform(C, u).tobytes()
            assert t.g.tobytes() == (C - u[:, None]).min(axis=0).tobytes()
        if t.order is not None:
            seen["order"] += 1
            assert t.order == sorted(range(1, len(uv)), key=t.depth.__getitem__, reverse=True)
        return out

    monkeypatch.setattr(classlp, "_solve", checked)
    brute_force_class_weights(D, counts, 0.125 if k == 4 else 0.05)
    assert min(seen.values()) > 0, seen


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


@pytest.mark.parametrize("per_class, m", [(27, 60), (4, 9)])  # restricted (4,860 cells), full
def test_row_blocks_solve_as_one_block_bit_for_bit(monkeypatch, per_class, m):
    # the candidate set, the pricing and the certificate each scan the cost
    # in row blocks; blocks of two rows must give the one-block solve
    D, counts = make_instance(60, k=3, per_class=per_class, m=m)
    one = solve_class_weights(D, counts)
    monkeypatch.setattr(sinkhorn, "_BLOCK_CELLS", 2 * m)
    assert len(list(classlp._row_blocks(*D.shape))) == D.shape[0] // 2 + D.shape[0] % 2
    blocks = solve_class_weights(D, counts)
    assert blocks.weights.weights.tobytes() == one.weights.weights.tobytes()
    assert blocks.objective == one.objective
    assert blocks.plan.plan.tobytes() == one.plan.plan.tobytes()
    assert blocks.plan.dual_gap == one.plan.dual_gap


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


@pytest.mark.parametrize("k", range(-12, 13, 3))
@pytest.mark.parametrize("classes, per_class, m", [(3, 10, 20), (4, 30, 60)],
                         ids=["full", "restricted"])
def test_objective_scales_with_the_cost(classes, per_class, m, k):
    # 30 x 20 takes the full LP, 120 x 60 the candidate set
    D, counts = make_instance(60, classes, per_class, m)
    base = solve_class_weights(D, counts).objective
    sol = solve_class_weights(10.0**k * D, counts)
    assert abs(sol.objective - 10.0**k * base) <= 1e-9 * 10.0**k * base
    assert sol.plan.dual_gap <= 1e-9 * sol.objective


@pytest.mark.parametrize("seed", range(4))
def test_translating_the_features_leaves_the_selection_unchanged(seed):
    sc = build_scenario("dda", 4, 3, 0, 10.0, seed)
    src = sort_by_class(sc.source)
    x, y = src.features.values, sc.target_train.features.values
    base = solve_class_weights(pairwise_distances(FeatureMatrix(x), FeatureMatrix(y)),
                               src.class_counts)
    for t in (1e2, 1e4, 1e6):
        D = pairwise_distances(FeatureMatrix(x + t), FeatureMatrix(y + t))
        sol = solve_class_weights(D, src.class_counts)
        np.testing.assert_allclose(sol.weights.weights, base.weights.weights, rtol=0, atol=1e-12)
        assert abs(sol.objective - base.objective) <= 1e-9 * base.objective


def test_grid_oracle_is_exactly_equivariant_under_binary_scaling():
    # D·2^k rounds nothing, so the walk must make the same choices: its
    # tolerances follow the cost's own scale, never an absolute bound
    for i in range(12):
        D, counts = gate01_instance(i)
        w, obj = brute_force_class_weights(D, counts, 0.05)
        for k in (-600, -40, 40, 600):
            wk, obj_k = brute_force_class_weights(np.ldexp(D, k), counts, 0.05)
            assert obj_k == np.ldexp(obj, k), (i, k)
            assert wk.weights.tobytes() == w.weights.tobytes(), (i, k)


def test_permuting_targets_and_rows_within_a_class_leaves_the_selection_unchanged():
    # the target points and the rows of each class are unordered sets
    for i in range(12):
        D, counts = gate01_instance(i)
        lp = solve_class_weights(D, counts)
        w, obj = brute_force_class_weights(D, counts, 0.02)
        starts = np.cumsum(counts) - counts
        for seed in range(3):
            r = rng(seed)
            rows = np.concatenate([s + r.permutation(c) for s, c in zip(starts, counts)])
            P = D[rows][:, r.permutation(D.shape[1])]
            assert abs(solve_class_weights(P, counts).objective - lp.objective) <= 1e-9 * D.max()
            wp, obj_p = brute_force_class_weights(P, counts, 0.02)
            np.testing.assert_array_equal(wp.weights, w.weights)
            assert abs(obj_p - obj) <= 1e-12 * obj, (i, seed)


def permute_classes(D, counts, perm):
    """D with its class blocks of rows put in the order ``perm``, and its counts."""
    starts = np.cumsum(counts) - counts
    rows = np.concatenate([starts[c] + np.arange(counts[c]) for c in perm])
    return D[rows], counts[perm]


@pytest.mark.parametrize("full", [True, False])
def test_permuting_the_classes_permutes_the_weights(full):
    # the classes are an unordered set: gate 03's instances take the full LP,
    # and 8 classes of 15 rows against 121 targets (14,520 cells) the restricted one
    r = rng(27)
    instances = ([gate03_instance(i) for i in range(20)] if full else
                 [make_instance(270 + s, k=8, per_class=15, m=121) for s in range(4)])
    for i, (D, counts) in enumerate(instances):
        assert (D.size <= classlp._RESTRICTED_MIN_CELLS) == full
        perm = r.permutation(counts.size)
        while (perm == np.arange(counts.size)).all():
            perm = r.permutation(counts.size)
        P, permuted_counts = permute_classes(D, counts, perm)
        for solve in (solve_class_weights, sinkhorn_class_weights):
            sol, psol = solve(D, counts), solve(P, permuted_counts)
            where = f"instance {i}, {solve.__name__}"
            assert abs(psol.objective - sol.objective) <= 1e-12 * sol.objective, where
            np.testing.assert_allclose(psol.weights.weights, sol.weights.weights[perm],
                                       rtol=0, atol=1e-9, err_msg=where)


@st.composite
def class_lp_instances(draw):
    """1-5 classes of 1-3 rows against 1-5 columns, integer costs in {0..3}
    at a scale from 1e-6 to 1e6, and a weight vector that may put zero weight
    on any class but not on all."""
    counts = np.array(draw(st.lists(st.integers(1, 3), min_size=1, max_size=5)))
    m = draw(st.integers(1, 5))
    cells = st.lists(st.integers(0, 3), min_size=int(counts.sum()) * m,
                     max_size=int(counts.sum()) * m)
    D = np.array(draw(cells), dtype=np.float64).reshape(-1, m) * 10.0 ** draw(st.floats(-6, 6))
    w = draw(st.lists(st.integers(0, 4), min_size=counts.size, max_size=counts.size)
             .filter(any))
    return D, counts, np.array(w, dtype=np.float64) / sum(w)


@settings(max_examples=150, deadline=None)
@given(class_lp_instances())
def test_class_lp_is_the_least_exact_transport_over_the_weights(instance):
    # the LP minimizes exact OT over the weight simplex: it is below the exact
    # OT at any weights and equal to it at its own
    D, counts, w = instance
    m = D.shape[1]
    sol = solve_class_weights(D, counts)
    tol = 1e-9 * D.max()

    def exact_ot(weights):
        mu = np.repeat(weights / counts, counts)
        return solve_exact_ot(OtProblem(D, mu, np.full(m, 1.0 / m))).objective

    assert sol.objective <= exact_ot(w) + tol
    assert abs(sol.objective - exact_ot(sol.weights.weights)) <= tol


def test_staircases_are_the_least_cost_trees_on_the_cost_i_plus_j():
    # every class size 1..40 stacked in one mask, at every column count 1..40
    counts = np.arange(1, 41)
    for m in range(1, 41):
        want = []
        for c in counts:
            bi, bj = _least_cost_start(np.add.outer(np.arange(c), np.arange(m)).astype(float),
                                       np.full(c, 1.0 / c), np.full(m, 1.0 / m))
            block = np.zeros((c, m), dtype=bool)
            block[bi, bj] = True
            want.append(block)
        np.testing.assert_array_equal(classlp._staircases(counts, m), np.vstack(want))


def test_gate08_sized_lps_take_the_restricted_path(monkeypatch):
    # gate 08's bound-report LP: 4 source classes of 30 rows against 300
    # target points, 36,000 cells
    sc = build_scenario("dda", k_source=4, k_target=3, overlap=0, separation=10.0,
                        seed=800, per_class=30, per_class_train=100, per_class_test=40)
    source = sort_by_class(sc.source)
    D = pairwise_distances(source.features, sc.target_train.features)
    counts = source.class_counts
    assert D.shape == (120, 300)
    calls = []
    candidates = classlp._candidate_cells
    monkeypatch.setattr(classlp, "_candidate_cells",
                        lambda *args: calls.append(1) or candidates(*args))
    sol = solve_class_weights(D, counts)
    exact = full_lp(D, counts)
    assert calls == [1]
    assert abs(sol.objective - exact.objective) <= 1e-9 * exact.objective
    np.testing.assert_allclose(sol.weights.weights, exact.weights.weights, rtol=0, atol=1e-9)
    assert sol.plan.dual_gap <= 1e-9 * (1 + sol.objective)

    # the default matrix's small-target wass LP: 4 source classes of 30 rows
    # against 40 target points, 4,800 cells
    sc = default_dda_matrix().scenarios[2]
    built = build_scenario(sc.kind, sc.k_source, sc.k_target, sc.overlap, sc.separation,
                           seed=sc.seed * 1009, dim=sc.dim, per_class=sc.per_class,
                           per_class_train=sc.per_class_train,
                           per_class_test=sc.per_class_test, near=sc.near)
    source = sort_by_class(built.source)
    D = pairwise_distances(source.features, built.target_train.features)
    assert D.shape == (120, 40)
    sol = solve_class_weights(D, source.class_counts)
    exact = full_lp(D, source.class_counts)
    assert calls == [1, 1]
    assert abs(sol.objective - exact.objective) <= 1e-9 * exact.objective

    # a 60 x 60 instance stays on the LP over every cell
    def refuse(*args):
        raise AssertionError("a 3,600-cell LP was solved on a candidate set")

    monkeypatch.setattr(classlp, "_candidate_cells", refuse)
    D, counts = make_instance(60, k=3, per_class=20, m=60)
    sol = solve_class_weights(D, counts)
    assert sol.objective == full_lp(D, counts).objective


def test_seed_keeps_a_small_candidate_set_that_needs_one_round():
    # lp-scale's 300 x 200 shape: 10 source classes of 30 rows against 5
    # target classes of 40 points
    sc = build_scenario("dda", 10, 5, 0, 10.0, seed=0, per_class=30, per_class_train=40)
    source = sort_by_class(sc.source)
    D = pairwise_distances(source.features, sc.target_train.features)
    counts = source.class_counts
    cells = classlp._candidate_cells(D, counts)
    assert cells.mean() <= 0.15
    sol, rounds = classlp._solve_on_cells(D, counts, cells)
    assert rounds == 1
    assert sol.plan.dual_gap <= 1e-9 * (1 + sol.objective)


def lp_scale_instance(shape, seed):
    """An instance of lp-scale's 300 x 200 or 600 x 300 shape: 10 or 20
    source classes of 30 rows against 5 target classes of 40 or 60 points."""
    k_source, per_target = {"300x200": (10, 40), "600x300": (20, 60)}[shape]
    sc = build_scenario("dda", k_source, 5, 0, 10.0, seed=seed, per_class=30,
                        per_class_train=per_target)
    source = sort_by_class(sc.source)
    return pairwise_distances(source.features, sc.target_train.features), source.class_counts


def classes_with_cells(cells, counts):
    return np.flatnonzero(np.bincount(np.repeat(np.arange(counts.size), counts),
                                      weights=cells.sum(axis=1), minlength=counts.size))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", ["300x200", "600x300"])
def test_screened_class_lp_equals_the_unscreened_one(monkeypatch, shape, seed):
    # with the mass threshold above one only the heaviest class starts, so the
    # classes that carry weight must be priced back in by h_c(y)
    D, counts = lp_scale_instance(shape, seed)
    monkeypatch.setattr(classlp, "_CLASS_MASS_MIN", 2.0)
    cells = classlp._candidate_cells(D, counts)
    assert classes_with_cells(cells, counts).size == 1
    sol, rounds = classlp._solve_on_cells(D, counts, cells)
    exact = full_lp(D, counts)
    assert (exact.weights.weights > 0).sum() > 1  # the seed missed a class with weight
    assert rounds > 1
    assert abs(sol.objective - exact.objective) <= 1e-9 * (1 + exact.objective)
    assert sol.plan.dual_gap <= 1e-9 * float(D.max())


@pytest.mark.parametrize("threshold", [1.0, np.inf])
def test_a_threshold_that_keeps_no_class_still_keeps_the_heaviest(monkeypatch, threshold):
    D, counts = make_instance(63, k=4, per_class=30, m=60)  # 3 classes with weight
    monkeypatch.setattr(classlp, "_CLASS_MASS_MIN", threshold)
    cells = classlp._candidate_cells(D, counts)
    assert classes_with_cells(cells, counts).size == 1
    sol, rounds = classlp._solve_on_cells(D, counts, cells)
    exact = full_lp(D, counts)
    assert (exact.weights.weights > 0).sum() > 1
    assert rounds > 1
    assert abs(sol.objective - exact.objective) <= 1e-9 * (1 + exact.objective)
    assert sol.plan.dual_gap <= 1e-9 * float(D.max())

    # one class is the heaviest, and nothing is left out
    D, counts = make_instance(64, k=1, per_class=100, m=60)
    cells = classlp._candidate_cells(D, counts)
    assert classes_with_cells(cells, counts).tolist() == [0]
    sol = classlp._solve_on_cells(D, counts, cells)[0]
    assert abs(sol.objective - full_lp(D, counts).objective) <= 1e-9 * (1 + sol.objective)
    assert sol.plan.dual_gap <= 1e-9 * float(D.max())


def test_candidate_cells_do_not_depend_on_the_cost_scale():
    # the float32 seed runs on D / max D, which is the same matrix at every
    # power-of-two scale: D itself would overflow or underflow float32
    D, counts = make_instance(61, k=4, per_class=30, m=60)
    assert D.size > classlp._RESTRICTED_MIN_CELLS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = classlp._candidate_cells(D, counts)
        for k in (-1000, -500, -40, 40, 500, 1000):
            np.testing.assert_array_equal(classlp._candidate_cells(D * 2.0**k, counts), base)


@st.composite
def switch_sized_instances(draw):
    """1-6 classes and 4,001 to 12,000 cells of integer costs in {0..3}, whose
    rows and columns repeat a few distinct ones: many ties and duplicates."""
    m = draw(st.integers(20, 120))
    n = draw(st.integers(max(4_001 // m + 1, 6), 12_000 // m))
    k = draw(st.integers(1, 6))
    cuts = draw(st.lists(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1, unique=True))
    counts = np.diff([0, *sorted(cuts), n])
    distinct_rows, distinct_cols = draw(st.integers(2, 60)), draw(st.integers(2, 40))
    r = rng(draw(st.integers(0, 2**32 - 1)))
    base = r.integers(0, 4, size=(distinct_rows, distinct_cols)).astype(np.float64)
    D = base[r.integers(0, distinct_rows, n)][:, r.integers(0, distinct_cols, m)]
    return D, counts


@settings(max_examples=40, deadline=None)
@given(switch_sized_instances())
def test_restricted_lp_matches_the_full_lp_near_the_switch(instance):
    D, counts = instance
    assert D.size > classlp._RESTRICTED_MIN_CELLS
    sol = solve_class_weights(D, counts)
    exact = full_lp(D, counts)
    tol = 1e-9 * (1 + exact.objective)
    assert abs(sol.objective - exact.objective) <= tol
    assert sol.plan.dual_gap <= tol and exact.plan.dual_gap <= tol


def test_tight_certificate_on_a_single_class_lp():
    # 60,000 cells: the restricted path, with every cell priced
    D, counts = make_instance(3, k=1, per_class=300, m=200)
    sol = solve_class_weights(D, counts)
    assert sol.plan.dual_gap <= 1e-9 * (1 + sol.objective)


def recording_highs(monkeypatch, perturb=None):
    """Route classlp's HiGHS runs through a recorder; return the list that
    collects each run's row duals (after ``perturb``, if given) with the mask
    of the classes in its LP."""
    marginals = []
    run_highs = classlp._run_highs

    def record(*args):
        x, duals = run_highs(*args)
        if perturb is not None:
            duals = perturb(duals)
        marginals.append((np.array(duals), args[-1].copy()))
        return x, duals

    monkeypatch.setattr(classlp, "_run_highs", record)
    return marginals


def lifted_duals(D, counts, duals, kept):
    """HiGHS's duals (y, z) for D / max D over all n rows: the rows of a
    class the LP left out take z_r = phi_r - h_c, with phi_r = min_j (D_rj -
    y_j) and h_c the mean of phi over the class."""
    m = D.shape[1]
    row_class = np.repeat(np.arange(counts.size), counts)
    y = duals[:m]
    phi = (D / (float(D.max()) or 1.0) - y).min(axis=1)
    z = phi - (np.bincount(row_class, weights=phi, minlength=counts.size) / counts)[row_class]
    z[kept[row_class]] = duals[m:]
    return np.concatenate([y, z])


def reduced_cost_gap(D, counts, marginals, objective):
    """The gap certified by HiGHS's duals (y, z) for D / max D through the
    reduced costs: mean(y) less the most negative reduced cost over every
    cell and the largest class sum of z."""
    n, m = D.shape
    duals = (float(D.max()) or 1.0) * marginals
    y, z = duals[:m], duals[m:]
    b_eq = np.concatenate([np.full(m, 1.0 / m), np.zeros(n)])
    rc_min = float((D - (y + z[:, None])).min())
    viol_t = float(np.abs(np.bincount(np.repeat(np.arange(counts.size), counts),
                                      weights=z, minlength=counts.size)).max())
    return max(0.0, objective - (float(b_eq @ duals) - max(0.0, -rc_min) - viol_t))


def test_c_transform_certificate_is_never_looser_than_the_reduced_cost_one(monkeypatch):
    marginals = recording_highs(monkeypatch)
    instances = ([gate01_instance(i) for i in range(100)]
                 + [gate03_instance(i) for i in range(50)]
                 + [make_instance(3, k=3, per_class=40, m=60)])  # 7,200 cells: restricted
    for D, counts in instances:
        sol = solve_class_weights(D, counts)
        duals = lifted_duals(D, counts, *marginals[-1])
        assert sol.plan.dual_gap <= reduced_cost_gap(D, counts, duals, sol.objective)


def test_corrupted_lp_duals_raise(monkeypatch):
    # any row duals give a lower bound, but these give a loose one: the
    # solver must refuse the result rather than report the gap
    noise = rng(5)
    recording_highs(monkeypatch, lambda y: y + 1e-3 * noise.standard_normal(y.size))
    D, counts = make_instance(30, k=3, per_class=4, m=9)
    with pytest.raises(SolverFailure, match="duality gap"):
        solve_class_weights(D, counts)


def test_an_infeasible_lp_raises_with_the_model_status():
    # no cell in target column 2: its mass of 1/m cannot be met
    D, counts = make_instance(31, k=2, per_class=3, m=4)
    cells = np.ones(D.shape, dtype=bool)
    cells[:, 2] = False
    with pytest.raises(SolverFailure, match="(?i)infeasible"):
        classlp._solve_on_cells(D, counts, cells)


def fresh_interpreter(code):
    """Run ``code`` in a new Python process with this source tree on its path;
    return its output lines."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(classlp.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


FIRST_LP = ("import sys, numpy as np, otselect\n"
            "def lp():\n"
            "    D, counts = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1, 1])\n"
            "    return otselect.solve_class_weights(D, counts).objective\n")
CORE = "scipy.optimize._highspy._core"


def test_import_loads_no_scipy_until_the_first_lp():
    loaded, objective = fresh_interpreter(
        FIRST_LP + "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "print(lp())\n")
    assert loaded == "[]"
    assert float(objective) == 0.0


def test_the_first_lp_loads_highs_by_file_and_scipy_optimize_reuses_it():
    out = fresh_interpreter(
        FIRST_LP + "print(lp(), 'scipy.optimize' in sys.modules, %r in sys.modules)\n"
        "core = sys.modules[%r]\n"
        "import scipy.optimize\n"
        "from scipy.optimize._highspy import _core\n"
        "print(_core is core)\n"
        "res = scipy.optimize.linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0])\n"
        "print(res.status, res.fun)\n"
        "print(lp())\n" % (CORE, CORE))
    assert out == ["0.0 False True", "True", "0 1.0", "0.0"]


def test_highs_falls_back_to_the_package_import_when_the_file_load_fails():
    out = fresh_interpreter(
        FIRST_LP + "import importlib.util\n"
        "def fail(*args, **kwargs):\n"
        "    raise OSError('no file load')\n"
        "importlib.util.spec_from_file_location = fail\n"
        "sys.modules['scipy.optimize'] = None  # the package import fails too\n"
        "try:\n"
        "    lp()\n"
        "except ImportError as e:\n"
        "    print('scipy>=1.17' in str(e), %r in sys.modules)\n"
        "del sys.modules['scipy.optimize']\n"
        "print(lp(), 'scipy.optimize' in sys.modules)\n" % CORE)
    assert out == ["True False", "0.0 True"]


@pytest.mark.parametrize("value", [0.0, 2.5])
def test_constant_cost_above_the_switch(value):
    # 10,000 cells of one cost: every coupling is optimal, at that cost
    D = np.full((100, 100), value)
    counts = np.array([30, 70])
    assert D.size > classlp._RESTRICTED_MIN_CELLS
    sol = solve_class_weights(D, counts)
    assert abs(sol.objective - value) <= 1e-12 * (1 + value)
    assert sol.plan.dual_gap <= 1e-9 * (1 + value)
    assert abs(sol.weights.weights.sum() - 1) < 1e-9
    np.testing.assert_allclose(sol.plan.plan.sum(axis=0), 1 / 100, atol=1e-12)


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
