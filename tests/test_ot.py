"""Exact transport solver vs permutation and generic-LP oracles."""

import itertools

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
    conditional_wasserstein_term,
    joint_wasserstein,
    pairwise_distances,
    solve_exact_ot,
    wasserstein_distance,
)
from otselect import ot
from otselect.errors import InfeasibleMarginals, SolverFailure
from otselect.ot import _transport_simplex

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


def check_warm_starts(cost, mu, nu, r):
    """Re-solve at neighbouring marginals from this solve's final basis.

    Each warm solve must give the cold solve's objective, a feasible plan and
    a certified gap. A start that is feasible for the new marginals is
    optimal (optimality depends on the cost alone), so it must need no pivot:
    with max_iters=0 any pivot would hit the cap. Returns whether feasible and
    infeasible starts were met.
    """
    n, m = cost.shape
    _, basis = _transport_simplex(OtProblem(cost, mu, nu))
    seen = {"feasible": False, "infeasible": False}
    for t in (1e-3, 0.3, 1.0):
        mu2 = (1 - t) * mu + t * r.dirichlet(np.ones(n))
        nu2 = (1 - t) * nu + t * r.dirichlet(np.ones(m))
        feasible = basis_values(basis, mu2, nu2).min() > 1e-9
        seen["feasible" if feasible else "infeasible"] = True
        prob = OtProblem(cost, mu2, nu2)
        cold = solve_exact_ot(prob)
        warm, _ = _transport_simplex(prob, max_iters=0 if feasible else None, basis=basis)
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
    assert abs(sol.objective - float((sol.plan * cost).sum())) < 1e-12


def test_duality_certificate_is_tight():
    for seed in range(25):
        r = rng(seed)
        n, m = r.integers(2, 15, size=2)
        sol = solve_exact_ot(OtProblem(r.random((n, m)), r.dirichlet(np.ones(n)),
                                       r.dirichlet(np.ones(m))))
        assert sol.dual_gap >= -1e-12
        assert sol.dual_gap <= 1e-7 * (1 + abs(sol.objective))


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
    with pytest.raises(InfeasibleMarginals):
        OtProblem(np.ones((2, 2)), np.array([0.7, 0.2]), np.array([0.5, 0.5]))
    with pytest.raises(InfeasibleMarginals):
        OtProblem(np.ones((2, 2)), np.array([0.5, 0.5]), np.array([0.9, 0.2]))


def test_pivot_cap_raises_solver_failure():
    r = rng(2)
    prob = OtProblem(r.random((6, 6)), np.full(6, 1 / 6), np.full(6, 1 / 6))
    with pytest.raises(SolverFailure):
        solve_exact_ot(prob, max_iters=0)
    # a start from another cost's optimal basis is feasible here but not
    # optimal, so it needs pivots and the cap still holds
    other = OtProblem(r.random((6, 6)), prob.mu, prob.nu)
    _, other_basis = _transport_simplex(other)
    _, own_basis = _transport_simplex(prob)
    assert set(zip(*other_basis)) != set(zip(*own_basis))
    with pytest.raises(SolverFailure):
        _transport_simplex(prob, max_iters=0, basis=other_basis)
    warm, _ = _transport_simplex(prob, basis=other_basis)
    assert abs(warm.objective - solve_exact_ot(prob).objective) <= 1e-12


def test_pivot_cap_counts_pivots():
    # The northwest corner puts the mass on the diagonal; the one pivot that
    # enters cell (1, 0) makes the plan anti-diagonal, which is optimal.
    prob = OtProblem(np.array([[1.0, 0.0], [0.0, 1.0]]), np.full(2, 0.5), np.full(2, 0.5))
    with pytest.raises(SolverFailure):
        solve_exact_ot(prob, max_iters=0)
    assert solve_exact_ot(prob, max_iters=1).objective == 0.0
    with pytest.raises(ValueError):
        solve_exact_ot(prob, max_iters=-1)
    # on a larger problem the smallest cap that solves gives the uncapped solve
    prob = OtProblem(rng(2).random((6, 6)), np.full(6, 1 / 6), np.full(6, 1 / 6))
    full, full_basis = _transport_simplex(prob)
    k = next(c for c in itertools.count() if _solves_within(prob, c))
    assert k >= 2
    with pytest.raises(SolverFailure):
        _transport_simplex(prob, max_iters=k - 1)
    capped, capped_basis = _transport_simplex(prob, max_iters=k)
    assert capped.objective == full.objective and capped_basis == full_basis


def _solves_within(prob, max_iters, basis=None):
    try:
        _transport_simplex(prob, max_iters=max_iters, basis=basis)
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
    # marginals, so dual pivots repair it and the northwest corner is not used
    cases = []
    for seed in range(6):
        r = rng(300 + seed)
        n, m = r.integers(4, 16, size=2)
        cost, mu, nu = r.random((n, m)), r.dirichlet(np.ones(n)), r.dirichlet(np.ones(m))
        _, basis = _transport_simplex(OtProblem(cost, mu, nu))
        for prob in infeasible_neighbours(cost, basis, mu, nu, r, 3):
            cases.append((prob, basis, solve_exact_ot(prob)))

    def cold_start(*args):
        raise AssertionError("the solve restarted from the northwest corner")

    monkeypatch.setattr(ot, "_northwest_corner", cold_start)
    for prob, basis, cold in cases:
        warm, _ = _transport_simplex(prob, basis=basis)
        assert abs(warm.objective - cold.objective) <= 1e-12 * abs(cold.objective)
        np.testing.assert_allclose(warm.plan.sum(axis=1), prob.mu, atol=1e-10)
        np.testing.assert_allclose(warm.plan.sum(axis=0), prob.nu, atol=1e-10)
        assert warm.dual_gap <= 1e-7 * (1 + abs(warm.objective))


def test_dual_pivots_count_toward_the_cap_and_foreign_bases_start_cold(monkeypatch):
    r = rng(5)
    cost, mu, nu = r.random((9, 7)), r.dirichlet(np.ones(9)), r.dirichlet(np.ones(7))
    _, basis = _transport_simplex(OtProblem(cost, mu, nu))
    prob = infeasible_neighbours(cost, basis, mu, nu, r, 1)[0]
    cold = solve_exact_ot(prob)
    with pytest.raises(SolverFailure):
        _transport_simplex(prob, max_iters=0, basis=basis)
    # the smallest cap that solves the warm start is its number of dual pivots
    k = next(c for c in itertools.count() if _solves_within(prob, c, basis))
    assert k >= 1

    cold_starts = []
    northwest = ot._northwest_corner
    monkeypatch.setattr(ot, "_northwest_corner",
                        lambda *args: cold_starts.append(1) or northwest(*args))
    warm, _ = _transport_simplex(prob, max_iters=k, basis=basis)
    assert not cold_starts and warm.objective == cold.objective
    # another cost's optimal basis is infeasible here and not dual-feasible
    # for this cost, so the solve starts cold and still reaches the optimum
    foreign = (_transport_simplex(OtProblem(r.random((9, 7)), mu, nu))[1] for _ in range(50))
    foreign = next(b for b in foreign if basis_values(b, prob.mu, prob.nu).min() < -1e-9)
    cold_starts.clear()
    warm, _ = _transport_simplex(prob, basis=foreign)
    assert cold_starts == [1]
    assert abs(warm.objective - cold.objective) <= 1e-12 * cold.objective


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
