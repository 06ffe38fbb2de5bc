"""Exact transport solver vs permutation and generic-LP oracles."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from otselect import (
    DiscreteJointDistribution,
    FeatureMatrix,
    OtProblem,
    TransportPlan,
    baseline_weights,
    brute_force_class_weights,
    build_scenario,
    conditional_wasserstein_term,
    default_dda_matrix,
    joint_wasserstein,
    pairwise_distances,
    solve_exact_ot,
    wasserstein_distance,
)
from otselect import ot
from otselect.bounds import random_joint_pair_shared_support
from otselect.errors import MalformedFile, NonFiniteValue, SolverFailure, SupportMismatch
from otselect.pipeline import sort_by_class

from conftest import random_joint, rng


# ----------------------------------------------------------------- oracles


def linprog_ot(cost, mu, nu):
    """Re-solve the transport LP with a generic solver over vec(P)."""
    n, m = cost.shape
    A_eq = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m:(i + 1) * m] = 1.0
        A_eq.append(row)
    for j in range(m):
        row = np.zeros(n * m)
        row[j::m] = 1.0
        A_eq.append(row)
    res = linprog(cost.ravel(), A_eq=np.array(A_eq), b_eq=np.concatenate([mu, nu]),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def birkhoff_ot(cost):
    """Uniform-marginal square problems are minimized at a permutation."""
    n = cost.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)) / n)
    return best


def basis_values(basis, mu, nu):
    """Cell values of a spanning-tree basis for the given marginals, from a
    dense solve of its row- and column-sum equations."""
    rows, cols = np.asarray(basis[0]), np.asarray(basis[1])
    n = mu.size
    A = np.zeros((n + nu.size, rows.size))
    A[rows, np.arange(rows.size)] = 1.0
    A[n + cols, np.arange(rows.size)] = 1.0
    return np.linalg.lstsq(A, np.concatenate([mu, nu]), rcond=None)[0]


def warm_solve(prob, max_iters=None, basis=None):
    """``solve_exact_ot`` started from ``basis``, the row and the column
    tuples of a spanning tree (``ot._basis_tree``), through ``ot._solve``:
    the plan and the final basis, as such tuples."""
    tree = None if basis is None else ot._basis_tree(list(basis[0]), list(basis[1]), prob.cost)
    bi, bj, vals, objective, gap, tree = ot._solve(prob.cost, prob.mu, prob.nu, tree, max_iters)
    plan = np.zeros(prob.cost.shape)
    plan[bi, bj] = vals
    return (TransportPlan(plan, prob.mu, prob.nu, objective, dual_gap=gap),
            (tuple(tree.bi), tuple(tree.bj)))


def perturbed_feasible(bi, bj, cost, mu, nu):
    """Whether cells (bi, bj) span (``ot._basis_tree``) and every basic value
    for mu and nu is >= 0 once its epsilon count breaks ties: a mass within
    1e-14 of zero needs a count >= 0."""
    tree = ot._basis_tree(list(bi), list(bj), cost)
    return tree is not None and all(v >= 1e-14 or (v >= -1e-14 and k >= 0)
                                    for v, k in zip(tree.values(mu, nu), tree.eps))


def check_warm_starts(cost, mu, nu, r):
    """Re-solve at neighbouring marginals from this solve's final basis.

    Each warm solve must give the cold solve's objective, a feasible plan and
    a certified gap. A start that is feasible for the new marginals is
    optimal (optimality depends on the cost alone), so it must need no pivot:
    with max_iters=0 any pivot would hit the cap. Returns whether feasible and
    infeasible starts were met.
    """
    n, m = cost.shape
    _, basis = warm_solve(OtProblem(cost, mu, nu))
    seen = {"feasible": False, "infeasible": False}
    for t in (1e-3, 0.3, 1.0):
        mu2 = (1 - t) * mu + t * r.dirichlet(np.ones(n))
        nu2 = (1 - t) * nu + t * r.dirichlet(np.ones(m))
        feasible = basis_values(basis, mu2, nu2).min() > 1e-9
        seen["feasible" if feasible else "infeasible"] = True
        prob = OtProblem(cost, mu2, nu2)
        cold = solve_exact_ot(prob)
        warm, _ = warm_solve(prob, max_iters=0 if feasible else None, basis=basis)
        assert abs(warm.objective - cold.objective) <= 1e-12 * (1 + abs(cold.objective))
        np.testing.assert_allclose(warm.plan.sum(axis=1), mu2, atol=1e-10)
        np.testing.assert_allclose(warm.plan.sum(axis=0), nu2, atol=1e-10)
        assert np.all(warm.plan >= 0)
        assert warm.dual_gap <= 1e-7 * (1 + abs(warm.objective))
    return seen


def test_oracles_agree_with_each_other():
    # cross-check the two oracles before trusting either
    for seed in range(5):
        c = rng(seed).random((4, 4))
        u = np.full(4, 0.25)
        assert abs(birkhoff_ot(c) - linprog_ot(c, u, u)) < 1e-10


# ------------------------------------------------------------------ solver


def test_matches_permutation_enumeration_on_uniform_square_problems():
    for seed in range(20):
        n = int(rng(seed).integers(2, 6))
        cost = rng(seed + 100).random((n, n)) * 10
        u = np.full(n, 1.0 / n)
        sol = solve_exact_ot(OtProblem(cost, u, u))
        assert abs(sol.objective - birkhoff_ot(cost)) < 1e-12


def test_matches_generic_lp_on_random_rectangular_problems():
    starts = {"feasible": 0, "infeasible": 0}
    for seed in range(30):
        r = rng(seed)
        n, m = r.integers(2, 13, size=2)
        cost = r.random((n, m)) * r.choice([0.1, 1.0, 50.0])
        mu = r.dirichlet(np.ones(n))
        nu = r.dirichlet(np.ones(m))
        sol = solve_exact_ot(OtProblem(cost, mu, nu))
        want = linprog_ot(cost, mu, nu)
        assert abs(sol.objective - want) <= 1e-9 * (1 + abs(want))
        for kind, met in check_warm_starts(cost, mu, nu, r).items():
            starts[kind] += met
    # both branches of the warm start were exercised
    assert starts["feasible"] > 0 and starts["infeasible"] > 0, starts


def test_plan_is_feasible_and_objective_consistent():
    r = rng(42)
    cost = r.random((7, 5))
    mu, nu = r.dirichlet(np.ones(7)), r.dirichlet(np.ones(5))
    sol = solve_exact_ot(OtProblem(cost, mu, nu))
    assert np.all(sol.plan >= 0)
    np.testing.assert_allclose(sol.plan.sum(axis=1), mu, atol=1e-12)
    np.testing.assert_allclose(sol.plan.sum(axis=0), nu, atol=1e-12)
    # the objective is the correctly rounded sum over the plan, exactly
    assert sol.objective == math.fsum((sol.plan * cost).ravel())


def test_duality_certificate_is_tight():
    for seed in range(25):
        r = rng(seed)
        n, m = r.integers(2, 15, size=2)
        prob = OtProblem(r.random((n, m)), r.dirichlet(np.ones(n)), r.dirichlet(np.ones(m)))
        sol = solve_exact_ot(prob)
        # the reported gap is the one the simplex checked, not a second one
        assert sol.dual_gap == ot._solve(prob.cost, prob.mu, prob.nu)[4]
        assert sol.dual_gap >= -1e-12
        assert sol.dual_gap <= 1e-7 * (1 + abs(sol.objective))


def test_gap_is_the_objective_minus_the_c_transform_dual():
    # the certificate is (u, min_i (C - u)): recomputed here from the final tree
    for seed in range(40):
        r = rng(700 + seed)
        n, m = r.integers(1, 15, size=2)
        C = r.random((n, m)) * 10.0 ** r.integers(-3, 4)
        mu, nu = r.dirichlet(np.ones(n)), r.dirichlet(np.ones(m))
        _, _, _, objective, gap, tree = ot._solve(C, mu, nu)
        u = np.array(tree.pot[:n])
        g = (C - u[:, None]).min(axis=0)
        assert gap == max(0.0, objective - float(u @ mu + g @ nu)), seed
        assert solve_exact_ot(OtProblem(C, mu, nu)).dual_gap == gap


@pytest.mark.parametrize("k", [-40, 40])
def test_gap_scales_exactly_with_the_cost(k):
    # scaling by a power of two is exact, and so must be every step of the certificate
    s = 2.0 ** k
    for seed in range(20):
        r = rng(800 + seed)
        n, m = r.integers(2, 20, size=2)
        cost, mu, nu = r.random((n, m)), r.dirichlet(np.ones(n)), r.dirichlet(np.ones(m))
        base = solve_exact_ot(OtProblem(cost, mu, nu))
        sol = solve_exact_ot(OtProblem(s * cost, mu, nu))
        assert sol.dual_gap == s * base.dual_gap, seed
        assert sol.objective == s * base.objective, seed


def test_one_dimensional_sorted_oracle():
    # for equal-size uniform empirical measures on the line, the optimum
    # pairs sorted samples
    for seed in range(8):
        r = rng(seed)
        x, y = np.sort(r.normal(size=9)), np.sort(r.normal(size=9))
        cost = np.abs(x[:, None] - y[None, :])
        u = np.full(9, 1 / 9)
        want = float(np.mean(np.abs(x - y)))
        assert abs(wasserstein_distance(cost, u, u) - want) < 1e-12


def test_degenerate_shapes():
    assert wasserstein_distance(np.array([[3.0]]), np.array([1.0]), np.array([1.0])) == 3.0
    one_row = wasserstein_distance(np.array([[1.0, 2.0, 3.0]]), np.array([1.0]),
                                   np.array([0.2, 0.3, 0.5]))
    assert abs(one_row - (0.2 + 0.6 + 1.5)) < 1e-12
    # one row or one column, at random and all-zero costs: the least-cost
    # start spans these and the general path solves them without a pivot
    for seed in range(12):
        r = rng(60 + seed)
        k = int(r.integers(2, 20))
        shape = (k, 1) if seed % 2 else (1, k)
        cost = r.random(shape) * 10.0 ** r.integers(-6, 7) if seed < 8 else np.zeros(shape)
        mu, nu = r.dirichlet(np.ones(shape[0])), r.dirichlet(np.ones(shape[1]))
        sol = solve_exact_ot(OtProblem(cost, mu, nu), max_iters=0)
        np.testing.assert_allclose(sol.plan.sum(axis=1), mu, rtol=0, atol=1e-15)
        np.testing.assert_allclose(sol.plan.sum(axis=0), nu, rtol=0, atol=1e-15)
        assert sol.dual_gap <= 1e-9 * cost.max(), (seed, sol.dual_gap)
        assert sol.objective == math.fsum((cost * sol.plan).ravel())
    # the grid oracle over one target point: every plan is forced, so the
    # whole weight goes to the class of least mean cost
    cost = rng(72).random((7, 1))
    w, obj = brute_force_class_weights(cost, np.array([3, 4]), 0.25)
    means = [cost[:3].mean(), cost[3:].mean()]
    np.testing.assert_array_equal(w.weights, np.eye(2)[np.argmin(means)])
    assert abs(obj - min(means)) <= 1e-15


def test_metric_properties_on_point_clouds():
    r = rng(9)
    clouds = [r.normal(size=(6, 2)) for _ in range(3)]
    u = np.full(6, 1 / 6)

    def w(a, b):
        d = pairwise_distances(FeatureMatrix(a), FeatureMatrix(b))
        return wasserstein_distance(d, u, u)

    assert w(clouds[0], clouds[0]) <= 1e-12
    assert abs(w(clouds[0], clouds[1]) - w(clouds[1], clouds[0])) < 1e-10
    assert w(clouds[0], clouds[2]) <= w(clouds[0], clouds[1]) + w(clouds[1], clouds[2]) + 1e-9


def test_marginal_validation():
    with pytest.raises(MalformedFile):
        OtProblem(np.ones((2, 2)), np.array([0.7, 0.2]), np.array([0.5, 0.5]))
    with pytest.raises(MalformedFile):
        OtProblem(np.ones((2, 2)), np.array([0.5, 0.5]), np.array([0.9, 0.2]))
    # a NaN passes both the sign and the sum test, since every comparison
    # with it is false
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteValue):
            OtProblem(np.ones((2, 2)), np.array([bad, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(NonFiniteValue):
            OtProblem(np.ones((2, 2)), np.array([0.5, 0.5]), np.array([0.5, bad]))


def test_pivot_cap_raises_solver_failure():
    r = rng(2)
    prob = OtProblem(r.random((6, 6)), np.full(6, 1 / 6), np.full(6, 1 / 6))
    with pytest.raises(SolverFailure):
        solve_exact_ot(prob, max_iters=0)
    # a start from another cost's optimal basis is feasible here but not
    # optimal, so it needs pivots and the cap still holds
    other = OtProblem(r.random((6, 6)), prob.mu, prob.nu)
    _, other_basis = warm_solve(other)
    _, own_basis = warm_solve(prob)
    assert set(zip(*other_basis)) != set(zip(*own_basis))
    with pytest.raises(SolverFailure):
        warm_solve(prob, max_iters=0, basis=other_basis)
    warm, _ = warm_solve(prob, basis=other_basis)
    assert abs(warm.objective - solve_exact_ot(prob).objective) <= 1e-12


def test_pivot_cap_counts_pivots():
    # The least-cost start takes (0, 0), then (0, 1) and (1, 1), which puts
    # the mass on the diagonal; the one pivot that enters cell (1, 0) makes
    # the plan anti-diagonal, which is optimal.
    prob = OtProblem(np.array([[0.0, 1.0], [1.0, 5.0]]), np.full(2, 0.5), np.full(2, 0.5))
    with pytest.raises(SolverFailure):
        solve_exact_ot(prob, max_iters=0)
    sol = solve_exact_ot(prob, max_iters=1)
    np.testing.assert_array_equal(sol.plan, [[0.0, 0.5], [0.5, 0.0]])
    assert sol.objective == 1.0
    with pytest.raises(ValueError):
        solve_exact_ot(prob, max_iters=-1)
    # on a larger problem the smallest cap that solves gives the uncapped solve
    prob = OtProblem(rng(2).random((6, 6)), np.full(6, 1 / 6), np.full(6, 1 / 6))
    full, full_basis = warm_solve(prob)
    k = next(c for c in itertools.count() if _solves_within(prob, c))
    assert k >= 2
    with pytest.raises(SolverFailure):
        warm_solve(prob, max_iters=k - 1)
    capped, capped_basis = warm_solve(prob, max_iters=k)
    assert capped.objective == full.objective and capped_basis == full_basis


def test_a_loop_stopped_short_of_the_optimum_raises(monkeypatch):
    # pricing that hides the negative reduced costs stops the loop at the
    # least-cost start, which is not optimal here (it needs pivots); the
    # certificate, built from the tree's own potentials, must refuse it
    prob = OtProblem(rng(2).random((6, 6)), np.full(6, 1 / 6), np.full(6, 1 / 6))
    reduced_costs = ot._reduced_costs
    monkeypatch.setattr(ot, "_reduced_costs", lambda C, tree, out: np.maximum(
        reduced_costs(C, tree, out), 0.0, out=out))
    with pytest.raises(SolverFailure, match="duality gap"):
        solve_exact_ot(prob)


def _solves_within(prob, max_iters, basis=None):
    try:
        warm_solve(prob, max_iters=max_iters, basis=basis)
    except SolverFailure:
        return False
    return True


def infeasible_neighbours(cost, basis, mu, nu, r, count, t=0.1):
    """Problems at marginals near (mu, nu) for which ``basis`` is infeasible."""
    n, m = cost.shape
    out = []
    for _ in range(100):
        mu2 = (1 - t) * mu + t * r.dirichlet(np.ones(n))
        nu2 = (1 - t) * nu + t * r.dirichlet(np.ones(m))
        if basis_values(basis, mu2, nu2).min() < -1e-9:
            out.append(OtProblem(cost, mu2, nu2))
    assert len(out) >= count
    return out[:count]


def test_infeasible_warm_start_is_repaired_without_a_cold_restart(monkeypatch):
    # the optimal basis of one cost stays dual-feasible under other
    # marginals, so dual pivots repair it and the cold start is not used
    cases = []
    for seed in range(6):
        r = rng(300 + seed)
        n, m = r.integers(4, 16, size=2)
        cost, mu, nu = r.random((n, m)), r.dirichlet(np.ones(n)), r.dirichlet(np.ones(m))
        _, basis = warm_solve(OtProblem(cost, mu, nu))
        for prob in infeasible_neighbours(cost, basis, mu, nu, r, 3):
            cases.append((prob, basis, solve_exact_ot(prob)))

    def cold_start(*args):
        raise AssertionError("the solve restarted cold")

    monkeypatch.setattr(ot, "_least_cost_start", cold_start)
    for prob, basis, cold in cases:
        warm, _ = warm_solve(prob, basis=basis)
        assert abs(warm.objective - cold.objective) <= 1e-12 * abs(cold.objective)
        np.testing.assert_allclose(warm.plan.sum(axis=1), prob.mu, atol=1e-10)
        np.testing.assert_allclose(warm.plan.sum(axis=0), prob.nu, atol=1e-10)
        assert warm.dual_gap <= 1e-7 * (1 + abs(warm.objective))


def test_dual_pivots_count_toward_the_cap_and_foreign_bases_start_cold(monkeypatch):
    r = rng(5)
    cost, mu, nu = r.random((9, 7)), r.dirichlet(np.ones(9)), r.dirichlet(np.ones(7))
    _, basis = warm_solve(OtProblem(cost, mu, nu))
    prob = infeasible_neighbours(cost, basis, mu, nu, r, 1)[0]
    cold = solve_exact_ot(prob)
    with pytest.raises(SolverFailure):
        warm_solve(prob, max_iters=0, basis=basis)
    # the smallest cap that solves the warm start is its number of dual pivots
    k = next(c for c in itertools.count() if _solves_within(prob, c, basis))
    assert k >= 1

    cold_starts = []
    least_cost = ot._least_cost_start
    monkeypatch.setattr(ot, "_least_cost_start",
                        lambda *args: cold_starts.append(1) or least_cost(*args))
    warm, _ = warm_solve(prob, max_iters=k, basis=basis)
    assert not cold_starts and warm.objective == cold.objective
    # another cost's optimal basis is infeasible here and not dual-feasible
    # for this cost, so the solve starts cold and still reaches the optimum
    foreign = (warm_solve(OtProblem(r.random((9, 7)), mu, nu))[1] for _ in range(50))
    foreign = next(b for b in foreign if basis_values(b, prob.mu, prob.nu).min() < -1e-9)
    cold_starts.clear()
    warm, _ = warm_solve(prob, basis=foreign)
    assert cold_starts == [1]
    assert abs(warm.objective - cold.objective) <= 1e-12 * cold.objective


def cold_start_problems(family, count):
    """Random problems of one family: baseline-shaped marginals with 30-40%
    zero-mass rows, all-equal costs, duplicate rows and columns, or 2 x k
    and k x 2 shapes."""
    for s in range(count):
        r = rng(700 + 100 * ["zero-rows", "equal", "duplicates", "thin"].index(family) + s)
        n, m = (int(x) for x in r.integers(3, 60, size=2))
        if family == "thin":
            n, m = (2, m) if s % 2 else (n, 2)
        cost, mu, nu = r.random((n, m)), r.dirichlet(np.ones(n)), r.dirichlet(np.ones(m))
        if family == "zero-rows":
            mu[r.choice(n, size=round(r.uniform(0.3, 0.4) * n), replace=False)] = 0.0
            mu /= mu.sum()
        elif family == "equal":
            cost = np.full((n, m), r.random())
        elif family == "duplicates":
            cost = cost[r.integers(0, n, n)][:, r.integers(0, m, m)]
        yield OtProblem(cost, mu, nu)


@pytest.mark.parametrize("family", ["zero-rows", "equal", "duplicates", "thin"])
def test_least_cost_start_spans_and_solves_as_the_northwest_corner(family):
    # the northwest-corner basis, passed as a start, is the cold start the
    # least-cost one replaced: both span and are feasible for the perturbed
    # marginals (so the northwest one is used as it stands), and both must
    # reach the same optimum
    for prob in cold_start_problems(family, 25):
        n, m = prob.cost.shape
        # the least-cost rule on costs i + j takes the cells in northwest-
        # corner order, with the same perturbed comparison as the cold start
        northwest = ot._least_cost_start(np.add.outer(np.arange(n), np.arange(m)).astype(float),
                                         prob.mu, prob.nu)
        for start in (ot._least_cost_start(prob.cost, prob.mu, prob.nu), northwest):
            assert perturbed_feasible(*start, prob.cost, prob.mu, prob.nu)
        cold, _ = warm_solve(prob)
        old, _ = warm_solve(prob, basis=northwest)
        assert cold.dual_gap <= 1e-9 * (1 + cold.objective)
        if family == "duplicates":
            # duplicate lines make several plans optimal, so the two starts
            # may end on different ones
            assert abs(cold.objective - old.objective) <= 1e-12 * (1 + old.objective)
        else:
            assert cold.objective == old.objective
            np.testing.assert_array_equal(cold.plan, old.plan)


SEEDED_FAMILIES = ["random", "zero-rows", "zero-in-nu", "duplicates", "equal", "integer",
                   "scaled"]


def seeded_start_problems(family, count):
    """Random problems of one family, each of at least ``ot._SEED_MIN_CELLS``
    cells, so a cold solve starts from the Sinkhorn-seeded order: random
    costs, 30-40% zero-mass rows, zero entries in a non-uniform nu,
    duplicate rows and columns, all-equal costs, integer costs, or random
    costs times 2^40 or 2^-40."""
    for s in range(count):
        r = rng(900 + 100 * SEEDED_FAMILIES.index(family) + s)
        n, m = (int(x) for x in r.integers(60, 100, size=2))
        assert n * m >= ot._SEED_MIN_CELLS
        cost, mu, nu = r.random((n, m)), r.dirichlet(np.ones(n)), r.dirichlet(np.ones(m))
        if family == "zero-rows":
            mu[r.choice(n, size=round(r.uniform(0.3, 0.4) * n), replace=False)] = 0.0
            mu /= mu.sum()
        elif family == "zero-in-nu":
            nu[r.choice(m, size=int(r.integers(1, 4)), replace=False)] = 0.0
            nu /= nu.sum()
        elif family == "duplicates":
            cost = cost[r.integers(0, n, n)][:, r.integers(0, m, m)]
        elif family == "equal":
            cost = np.full((n, m), r.random())
        elif family == "integer":
            cost = r.integers(0, 10, size=(n, m)).astype(float)
        elif family == "scaled":
            cost = np.ldexp(cost, 40 if s % 2 else -40)
        yield OtProblem(cost, mu, nu)


@pytest.mark.parametrize("family", SEEDED_FAMILIES)
def test_seeded_start_spans_and_solves_as_the_least_cost_start(family):
    # above the size constant the cold start follows the reduced costs of a
    # short Sinkhorn run; it is still a perturbed-feasible spanning tree, and
    # its solve is certified and optimal like one from the plain least-cost
    # start on C
    for prob in seeded_start_problems(family, 6):
        C, mu, nu = prob.cost, prob.mu, prob.nu
        order = ot._start_costs(C, mu, nu)
        assert order is not C
        assert perturbed_feasible(*ot._least_cost_start(order, mu, nu), C, mu, nu)
        cold, _ = warm_solve(prob)
        assert cold.dual_gap <= 1e-9 * C.max()
        plain, _ = warm_solve(prob, basis=ot._least_cost_start(C, mu, nu))
        assert abs(cold.objective - plain.objective) <= 1e-12 * (1 + plain.objective)
        for k in (-40, 40):
            scaled = solve_exact_ot(OtProblem(np.ldexp(C, k), mu, nu))
            np.testing.assert_array_equal(scaled.plan, cold.plan)
            assert scaled.objective == math.ldexp(cold.objective, k)


BLOCK_FAMILIES = ["zero-rows", "zero-cols", "both", "integer"]


def block_problems(family, count):
    """Random problems of at least ``ot._SEED_MIN_CELLS`` cells whose
    marginals have zeros, so ``solve_exact_ot`` solves on their block of
    positive mass: 30-95% zero-mass rows, 1-5 zero-mass columns, both at
    once, or both on integer costs, whose ties leave several plans optimal."""
    for s in range(count):
        r = rng(1500 + 100 * BLOCK_FAMILIES.index(family) + s)
        n, m = (int(x) for x in r.integers(60, 100, size=2))
        assert n * m >= ot._SEED_MIN_CELLS
        cost, mu, nu = r.random((n, m)), r.dirichlet(np.ones(n)), r.dirichlet(np.ones(m))
        if family != "zero-cols":
            mu[r.choice(n, size=round(r.uniform(0.3, 0.95) * n), replace=False)] = 0.0
            mu /= mu.sum()
        if family != "zero-rows":
            nu[r.choice(m, size=int(r.integers(1, 6)), replace=False)] = 0.0
            nu /= nu.sum()
        if family == "integer":
            cost = r.integers(0, 10, size=(n, m)).astype(float)
        yield OtProblem(cost, mu, nu)


@pytest.mark.parametrize("family", BLOCK_FAMILIES)
def test_the_positive_mass_block_solves_as_the_full_problem(family):
    # from the size constant up, a problem with zero-mass lines is solved on
    # its block of positive mass alone and certified over every cell
    for prob in block_problems(family, 5):
        C, mu, nu = prob.cost, prob.mu, prob.nu
        rows, cols = np.flatnonzero(mu > 0.0), np.flatnonzero(nu > 0.0)
        sol = solve_exact_ot(prob)
        block = solve_exact_ot(OtProblem(C[np.ix_(rows, cols)], mu[rows], nu[cols]))
        assert sol.objective == block.objective
        np.testing.assert_array_equal(sol.plan[np.ix_(rows, cols)], block.plan)
        off = sol.plan.copy()
        off[np.ix_(rows, cols)] = 0.0
        assert not off.any()
        full = ot._solve(C, mu, nu)[3]
        assert abs(sol.objective - full) <= 1e-12 * full
        assert sol.dual_gap <= 1e-9 * C.max()
        for k in (-40, 40):
            scaled = solve_exact_ot(OtProblem(np.ldexp(C, k), mu, nu))
            assert scaled.objective == math.ldexp(sol.objective, k)
            assert scaled.dual_gap == math.ldexp(sol.dual_gap, k)


@pytest.mark.parametrize("scale", [0.0, 2.0 ** 40])
def test_the_block_certificate_lifts_zero_mass_rows_far_from_the_block(scale):
    # the zero-mass rows cost nothing (scale 0: a lift u_r = 0 would let their
    # cells pull the c-transform below the block's column potentials) or up to
    # 2^40 times the block's costs (rounding in C_rj - u_r at that scale is
    # within 1e-9 of the largest entry of C, but not of the block's)
    r = rng(77)
    n, m = 90, 50
    C = 1.0 + r.random((n, m))
    mu = r.dirichlet(np.ones(n))
    zero = r.choice(n, size=60, replace=False)
    mu[zero] = 0.0
    mu /= mu.sum()
    C[zero] = scale * r.random((zero.size, m))
    nu = np.full(m, 1.0 / m)
    sol = solve_exact_ot(OtProblem(C, mu, nu))
    assert sol.dual_gap <= 1e-9 * C.max()
    rows = np.flatnonzero(mu > 0.0)
    assert sol.objective == solve_exact_ot(OtProblem(C[rows], mu[rows], nu)).objective


def default_matrix_cell(method, seed):
    """The exact OT problem of a baseline cell of the default experiment
    matrix's first scenario, as ``select_weights`` poses it."""
    s = default_dda_matrix().scenarios[0]
    sc = build_scenario(s.kind, s.k_source, s.k_target, s.overlap, s.separation,
                        seed=s.seed * 1009 + seed, dim=s.dim, per_class=s.per_class,
                        per_class_train=s.per_class_train, per_class_test=s.per_class_test,
                        near=s.near)
    source, target = sort_by_class(sc.source), sc.target_train.features
    counts = source.class_counts
    w = baseline_weights(method, source, target, seed).weights
    return OtProblem(pairwise_distances(source.features, target),
                     np.repeat(w / counts, counts), np.full(target.rows, 1.0 / target.rows))


@pytest.mark.parametrize("method, seeded, least_cost", [("all", 218, 344), ("rnd", 198, 277)])
def test_seeded_cold_start_saves_pivots_on_a_default_matrix_cell(monkeypatch, method, seeded,
                                                                 least_cost):
    # exact pivot counts of a 120 x 60 cell, seed 0; the rnd cell leaves one
    # of four classes, 30 rows, without mass
    prob = default_matrix_cell(method, 0)
    assert prob.cost.size >= ot._SEED_MIN_CELLS
    assert (method == "rnd") == (prob.mu == 0.0).any()
    pivots = []
    pivot = ot._Tree.pivot
    monkeypatch.setattr(ot._Tree, "pivot", lambda *args: pivots.append(1) or pivot(*args))
    cold, _ = warm_solve(prob)
    n_cold = len(pivots)
    pivots.clear()
    plain, _ = warm_solve(prob, basis=ot._least_cost_start(prob.cost, prob.mu, prob.nu))
    assert (n_cold, len(pivots)) == (seeded, least_cost)
    assert abs(cold.objective - plain.objective) <= 1e-12 * (1 + plain.objective)


@pytest.mark.parametrize("k", [-12, -9, -6, 0, 6, 12])
def test_objective_scales_with_the_cost(k):
    s = 10.0 ** k
    for seed in range(8):
        r = rng(400 + seed)
        n, m = r.integers(2, 31, size=2)
        cost, mu, nu = r.random((n, m)), r.dirichlet(np.ones(n)), r.dirichlet(np.ones(m))
        want = s * solve_exact_ot(OtProblem(cost, mu, nu)).objective
        sol = solve_exact_ot(OtProblem(s * cost, mu, nu))
        assert abs(sol.objective - want) <= 1e-12 * want, (seed, sol.objective / want)
        assert sol.dual_gap <= 1e-9 * sol.objective


def test_degenerate_marginals_with_many_ties_still_solve():
    # integer-ratio masses force degenerate pivots
    cost = rng(11).integers(0, 4, size=(8, 8)).astype(float)
    u = np.full(8, 0.125)
    sol = solve_exact_ot(OtProblem(cost, u, u))
    assert abs(sol.objective - linprog_ot(cost, u, u)) < 1e-10


def highs_ot(cost, mu, nu):
    """The transport LP by HiGHS at 1e-10 feasibility tolerances; at its
    default 1e-7 its plans for small masses go negative by up to 6e-8."""
    n, m = cost.shape
    A_eq = sp.vstack([sp.kron(sp.eye(n), np.ones((1, m))), sp.kron(np.ones((1, n)), sp.eye(m))])
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=np.concatenate([mu, nu]),
                  bounds=(0, None), method="highs", options=tight)
    assert res.status == 0
    return res.fun


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 200), st.integers(2, 200), st.integers(0, 2 ** 31 - 1))
def test_heavily_degenerate_problems_match_highs_and_warm_starts(n, m, seed):
    # costs in {0..3} and masses in whole multiples of 1/N, N the power of
    # two at or above n: partial sums of the marginals coincide everywhere,
    # so most pivots are degenerate. With a power of two every plan entry and
    # objective is exact, so all optimal plans share the objective's bits
    # (with 1/n they can differ in the last bit)
    r = rng(seed)
    N = 1 << (n - 1).bit_length()
    cost = r.integers(0, 4, size=(n, m)).astype(float)
    mu = r.multinomial(N, np.full(n, 1 / n)) / N
    nu = r.multinomial(N, np.full(m, 1 / m)) / N
    prob = OtProblem(cost, mu, nu)
    cold, cold_basis = warm_solve(prob)
    want = highs_ot(cost, mu, nu)
    assert abs(cold.objective - want) <= 1e-10 * (1 + want)
    assert cold.dual_gap <= 1e-10 * (1 + want)
    # warm start from the optimal basis after one unit of row mass moved
    near = mu.copy()
    near[np.flatnonzero(mu)[0]] -= 1 / N
    near[r.integers(n)] += 1 / N
    _, basis = warm_solve(OtProblem(cost, near, nu))
    warm, warm_basis = warm_solve(prob, basis=basis)
    assert warm.objective == cold.objective
    # both end on bases feasible for the perturbed marginals: no zero-mass
    # cell with a negative epsilon count
    for bi, bj in (cold_basis, warm_basis):
        assert perturbed_feasible(bi, bj, cost, mu, nu)
    np.testing.assert_array_equal(warm.plan.sum(axis=1), mu)
    np.testing.assert_array_equal(warm.plan.sum(axis=0), nu)


@pytest.mark.parametrize("seed", [9, 15, 50])
def test_near_rational_marginals_survive_de_perturbation(seed):
    # 15 classes of 20 rows, 9 with weights within ~3e-7 of small-integer
    # ratios: with a perturbation that grows as n^2 these solves ended on a
    # basis infeasible for the true marginals
    r = rng(seed)
    w = np.zeros(15)
    w[:9] = r.integers(1, 10, 9)
    w /= w.sum()
    w[:9] += r.normal(scale=3e-7, size=9)
    w /= w.sum()
    mu = np.repeat(w / 20, 20)
    cost = r.random((300, 200))
    nu = np.full(200, 1 / 200)
    sol = solve_exact_ot(OtProblem(cost, mu, nu))
    n, m = cost.shape
    A_eq = sp.vstack([sp.kron(sp.eye(n), np.ones((1, m))), sp.kron(np.ones((1, n)), sp.eye(m))])
    # at HiGHS's default 1e-7 feasibility tolerances its plan for these
    # 1/6000-sized masses has entries down to -6e-8 and an objective 7e-8 low
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=np.concatenate([mu, nu]),
                  bounds=(0, None), method="highs", options=tight)
    assert res.status == 0
    assert abs(sol.objective - res.fun) <= 1e-8 * res.fun
    np.testing.assert_allclose(sol.plan.sum(axis=1), mu, atol=1e-10)
    np.testing.assert_allclose(sol.plan.sum(axis=0), nu, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_random_problems_feasible_with_certified_gap(seed):
    r = rng(seed)
    n, m = r.integers(1, 9, size=2)
    cost, mu, nu = r.random((n, m)), r.dirichlet(np.ones(n)), r.dirichlet(np.ones(m))
    sol = solve_exact_ot(OtProblem(cost, mu, nu))
    np.testing.assert_allclose(sol.plan.sum(axis=1), sol.source_marginal, atol=1e-10)
    np.testing.assert_allclose(sol.plan.sum(axis=0), sol.target_marginal, atol=1e-10)
    assert sol.dual_gap <= 1e-7 * (1 + abs(sol.objective))
    if n > 1 and m > 1:
        check_warm_starts(cost, mu, nu, r)


# ------------------------------------------------------- joint distances


def hand_joint_cost(p, q, label_cost):
    n, m = len(p.masses), len(q.masses)
    out = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            out[i, j] = np.linalg.norm(p.features[i] - q.features[j])
            if p.labels[i] != q.labels[j]:
                out[i, j] += label_cost
    return out


def test_joint_wasserstein_matches_hand_assembled_cost():
    p, q = random_joint(1, 4), random_joint(2, 5)
    for lc in (0.0, 1.0, 2.5):
        want = wasserstein_distance(hand_joint_cost(p, q, lc), p.masses, q.masses)
        assert abs(joint_wasserstein(p, q, lc) - want) < 1e-12


def test_joint_distance_zero_label_cost_reduces_to_feature_distance():
    p, q = random_joint(3, 4), random_joint(4, 4)
    d = pairwise_distances(FeatureMatrix(p.features), FeatureMatrix(q.features))
    assert abs(joint_wasserstein(p, q, 0.0) - wasserstein_distance(d, p.masses, q.masses)) < 1e-12


def test_joint_cost_holds_no_difference_array():
    # an n x m x d broadcast of the feature differences would take 92 MB here
    r = rng(9)
    p, q = (DiscreteJointDistribution(r.normal(size=(150, 512)), r.integers(0, 3, size=150),
                                      np.full(150, 1 / 150)) for _ in range(2))
    tracemalloc.start()
    try:
        joint_wasserstein(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_joint_distance_of_identical_distributions_is_zero():
    p = random_joint(5, 6)
    assert joint_wasserstein(p, p) <= 1e-12


def test_conditional_term_matches_per_atom_hand_sum():
    # shared feature support, different conditional label laws
    z = np.array([[0.0, 0.0], [1.0, 0.0]])
    p = DiscreteJointDistribution(np.repeat(z, 2, axis=0), np.array([0, 1, 0, 1]),
                                  np.array([0.3, 0.2, 0.1, 0.4]))
    q = DiscreteJointDistribution(np.repeat(z, 2, axis=0), np.array([0, 1, 0, 1]),
                                  np.array([0.25, 0.25, 0.25, 0.25]))
    # per z: W1 between label laws with 0/1 cost = total variation distance
    # z0: p gives (0.6, 0.4), q gives (0.5, 0.5) -> tv 0.1
    # z1: p gives (0.2, 0.8), q gives (0.5, 0.5) -> tv 0.3
    want_src = 0.5 * 0.1 + 0.5 * 0.3  # weighted by p's feature marginal
    got = conditional_wasserstein_term(p, q, weighting="source")
    assert abs(got - want_src) < 1e-12


@pytest.mark.parametrize("weighting", ["source", "target"])
def test_conditional_term_is_the_per_atom_exact_ot_sum(weighting):
    for seed in range(50):
        p, q = random_joint_pair_shared_support(rng(700 + seed))
        # the generator lays out every (atom, label) pair, atom-major, on both sides
        L = np.unique(p.labels).size
        tp, tq = p.masses.reshape(-1, L), q.masses.reshape(-1, L)
        w = (tp if weighting == "source" else tq).sum(axis=1)
        cost01 = 1.0 - np.eye(L)
        want = sum(w[i] * wasserstein_distance(cost01, tp[i] / tp[i].sum(), tq[i] / tq[i].sum())
                   for i in range(w.size))
        assert abs(conditional_wasserstein_term(p, q, weighting) - want) <= 1e-12
        assert abs(conditional_wasserstein_term(p, q, weighting, label_cost=2.5)
                   - 2.5 * want) <= 1e-12


def test_zero_mass_atom_is_not_support_for_the_conditional_term():
    z = np.array([[0.0], [1.0]])
    p = DiscreteJointDistribution(z, np.array([0, 1]), np.array([0.5, 0.5]))
    q = DiscreteJointDistribution(z, np.array([0, 1]), np.array([1.0, 0.0]))
    with pytest.raises(SupportMismatch):
        conditional_wasserstein_term(p, q, weighting="source")
    # weighted by q, p's mass at z = 1 is ignored, and at z = 0 both laws are label 0
    assert conditional_wasserstein_term(p, q, weighting="target") == 0.0
