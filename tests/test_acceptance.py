"""Release acceptance gates.

One test per numbered gate; `pytest -v` prints one pass/fail line each.
Gates 4 and 6 assert stated constants that measurement shows to be wrong
(see the repair notes in bounds.py docstrings); they fail by design and the
failure messages carry the measured numbers.
"""

import math
import time

import numpy as np

from otselect import (
    FeatureMatrix,
    SinkhornConfig,
    SoftmaxHead,
    TrainConfig,
    check_error_difference_bound,
    decomposition_check,
    end_to_end_bound_report,
    induced_error,
    largest_singular_value,
    pairwise_distances,
    sinkhorn_class_weights,
    softmax_lipschitz_constant,
    solve_class_weights,
    verify_softmax_lipschitz,
)
from otselect.bounds import random_joint_pair_shared_support
from otselect.classlp import brute_force_class_weights
from otselect.experiment import default_dda_matrix
from otselect.pipeline import softmax, weighted_cross_entropy
from otselect.synth import build_scenario


def test_criterion_01_lp_beats_grid_oracle_with_certified_gap():
    start = time.perf_counter()
    for i in range(100):
        r = np.random.default_rng(1000 + i)
        k = int(r.integers(1, 4))
        hi = 24 if k == 3 else 30
        counts = np.minimum(r.integers(2, max(3, hi // k) + 1, size=k), 30 // k)
        m = int(r.integers(6, hi + 1))
        src = r.normal(size=(int(counts.sum()), 2))
        tgt = r.normal(size=(m, 2)) + r.normal(size=2)
        D = pairwise_distances(FeatureMatrix(src), FeatureMatrix(tgt))
        sol = solve_class_weights(D, counts)
        _, bf_obj = brute_force_class_weights(D, counts, 0.02)
        assert sol.objective <= bf_obj + 1e-7, f"instance {i}: {sol.objective} vs {bf_obj}"
        assert sol.plan.dual_gap <= 1e-7 * (1 + sol.objective), f"instance {i}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_exact_recovery_of_a_planted_class():
    start = time.perf_counter()
    for i in range(20):
        r = np.random.default_rng(2000 + i)
        k = int(r.integers(2, 5))
        per = int(r.integers(3, 7))
        centers = r.normal(size=(k, 2)) * 12
        blocks = [centers[c] + r.normal(size=(per, 2)) for c in range(k)]
        planted = int(r.integers(0, k))
        src = np.vstack(blocks)
        tgt = blocks[planted].copy()
        D = pairwise_distances(FeatureMatrix(src), FeatureMatrix(tgt))
        sol = solve_class_weights(D, np.full(k, per))
        assert sol.weights.weights[planted] >= 1 - 1e-6, f"fixture {i}"
        assert sol.objective <= 1e-7, f"fixture {i}: objective {sol.objective}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_03_entropic_solver_tracks_the_lp():
    start = time.perf_counter()
    for i in range(50):
        r = np.random.default_rng(3000 + i)
        k = int(r.integers(2, 5))
        counts = r.integers(3, max(4, 60 // k) + 1, size=k)
        counts = np.minimum(counts, 60 // k)
        m = int(r.integers(8, 61))
        src = r.normal(size=(int(counts.sum()), 2)) * 2
        tgt = r.normal(size=(m, 2)) + r.normal(size=2)
        D = pairwise_distances(FeatureMatrix(src), FeatureMatrix(tgt))
        lp = solve_class_weights(D, counts)
        ent = sinkhorn_class_weights(D, counts, SinkhornConfig(epsilon=0.001 * float(D.mean())))
        assert abs(ent.objective - lp.objective) <= 0.05 * (1 + lp.objective), f"instance {i}"
        P = ent.plan.plan
        assert np.all(P >= 0)
        assert np.abs(P.sum(axis=0) - 1.0 / m).max() <= 1e-6, f"instance {i}"
        row_sums = P.sum(axis=1)
        row_class = np.repeat(np.arange(k), counts)
        spread = max(float(np.ptp(row_sums[row_class == c])) for c in range(k))
        assert spread <= 1e-6, f"instance {i}: spread {spread}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_04_softmax_lipschitz_formula():
    assert softmax_lipschitz_constant(2) == 0.5
    assert softmax_lipschitz_constant(10) == 0.3
    for K in (2, 3, 5, 10):
        alpha = softmax_lipschitz_constant(K)
        ratio = verify_softmax_lipschitz(K, trials=100_000, seed=400 + K)
        assert ratio <= alpha + 1e-9, (
            f"K={K}: measured l2->l1 ratio {ratio:.6f} exceeds the stated "
            f"constant {alpha:.6f}; the true modulus is 1/sqrt(2)~=0.7071 "
            f"for every K, so this gate is unattainable as written"
        )


def test_criterion_05_induced_error_matches_randomized_classifier():
    draws = 1_000_000
    for i in range(20):
        r = np.random.default_rng(5000 + i)
        n, k, d = int(r.integers(20, 80)), int(r.integers(2, 6)), int(r.integers(2, 5))
        head = SoftmaxHead(r.normal(size=(k, d)), np.arange(k))
        Z = r.normal(size=(n, d))
        labels = r.integers(0, k, size=n)
        probs = softmax(Z @ head.weight_matrix.T)
        expected = induced_error(probs, np.eye(k)[labels])
        rows = r.integers(0, n, size=draws)
        u = r.random(draws)
        picked = (u[:, None] > probs[rows].cumsum(axis=1)).sum(axis=1)
        simulated = float(np.mean(picked != labels[rows]))
        sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / draws)
        assert abs(simulated - expected) <= 3 * sigma, (
            f"instance {i}: |{simulated:.6f} - {expected:.6f}| > 3 sigma ({3 * sigma:.2e})"
        )


def test_criterion_06_joint_decomposition_inequality():
    violations = []
    for i in range(200):
        r = np.random.default_rng(6000 + i)
        p, q = random_joint_pair_shared_support(r)
        lhs, rhs, holds = decomposition_check(p, q)
        if lhs > rhs + 1e-7:
            violations.append((i, lhs - rhs))
    worst = max((v for _, v in violations), default=0.0)
    assert not violations, (
        f"{len(violations)}/200 instances violate the marginal-plus-conditional "
        f"decomposition (worst excess {worst:.4f}); the min-of-conditionals form "
        f"is false in general, so this gate is unattainable as written"
    )


def test_criterion_07_error_difference_bound_with_rho_upper():
    for i in range(200):
        r = np.random.default_rng(7000 + i)
        p, q = random_joint_pair_shared_support(r)
        k = max(int(max(p.labels.max(), q.labels.max())) + 1, 2)
        head = SoftmaxHead(r.normal(size=(k, p.features.shape[1])), np.arange(k))
        lhs, rhs, holds = check_error_difference_bound(p, q, head)
        assert holds, f"instance {i}: |eps_p - eps_q| = {lhs} > {rhs}"


def test_criterion_08_transfer_bound_end_to_end():
    for seed in range(10):
        sc = build_scenario("dda", k_source=4, k_target=3, overlap=0,
                            separation=10.0, seed=800 + seed, per_class=30,
                            per_class_train=100, per_class_test=40)
        rep = end_to_end_bound_report(sc.source, sc.target_train, sc.target_test,
                                      cfg=TrainConfig(epochs=60, seed=seed),
                                      source_class_ids=sc.source_class_ids,
                                      target_class_ids=sc.target_class_ids)
        assert rep.holds, f"seed {seed}: eps_T {rep.eps_target} > bound {rep.bound_value}"
        assert rep.eps_target <= rep.bound_value + 1e-12, f"seed {seed}"
    # skipping fine-tuning collapses the assembled value to the base form
    sc = build_scenario("dda", k_source=4, k_target=3, overlap=0, separation=10.0,
                        seed=810, per_class=30, per_class_train=100, per_class_test=40)
    rep = end_to_end_bound_report(sc.source, sc.target_train, sc.target_test,
                                  cfg=TrainConfig(epochs=60, seed=0),
                                  source_class_ids=sc.source_class_ids,
                                  target_class_ids=sc.target_class_ids,
                                  skip_finetune=True)
    assert rep.sigma_max_diff == 0.0
    assert rep.bound_value == rep.eps_source + max(rep.rho_upper, 1.0) * rep.w1_joint


def test_criterion_09_selection_beats_baselines_on_the_default_matrix(default_matrix_run):
    rows, elapsed = default_matrix_run
    config = default_dda_matrix()

    means = {(r["scenario"], r["method"]): r["accuracy_mean"]
             for r in rows if r["status"] == "summary"}
    scenarios = sorted({s for s, _ in means})
    assert len(scenarios) == 3

    # the generator plants a closest subset that differs from uniform in
    # every default scenario, so the uniform comparison applies everywhere
    for sc in config.scenarios:
        built = build_scenario(sc.kind, sc.k_source, sc.k_target, sc.overlap,
                               sc.separation, sc.seed, dim=sc.dim,
                               per_class=sc.per_class,
                               per_class_train=sc.per_class_train,
                               per_class_test=sc.per_class_test, near=sc.near)
        assert built.planted, f"{sc.name}: no planted close subset"

    for s in scenarios:
        wass = means[(s, "wass")]
        assert wass is not None
        assert wass >= means[(s, "rnd")] - 1e-12, f"{s}: wass {wass} < rnd {means[(s, 'rnd')]}"
        assert wass >= means[(s, "mn")] - 1e-12, f"{s}: wass {wass} < mn {means[(s, 'mn')]}"
        assert wass >= means[(s, "all")] - 1e-12, f"{s}: wass {wass} < all {means[(s, 'all')]}"
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_10_analytic_gradients_match_finite_differences():
    for i in range(50):
        r = np.random.default_rng(10_000 + i)
        k, d, n = int(r.integers(2, 6)), int(r.integers(1, 5)), int(r.integers(2, 12))
        V = r.normal(size=(k, d))
        Z = r.normal(size=(n, d))
        y = r.integers(0, k, size=n)
        p = r.dirichlet(np.ones(n))
        l2 = float(r.choice([0.0, 0.1]))
        _, grad = weighted_cross_entropy(V, Z, y, p, l2_penalty=l2)
        h = 1e-6
        for _ in range(4):  # spot-check four random coordinates per instance
            a, b = int(r.integers(0, k)), int(r.integers(0, d))
            Vp, Vm = V.copy(), V.copy()
            Vp[a, b] += h
            Vm[a, b] -= h
            lp, _ = weighted_cross_entropy(Vp, Z, y, p, l2_penalty=l2)
            lm, _ = weighted_cross_entropy(Vm, Z, y, p, l2_penalty=l2)
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(grad[a, b]), 1e-8)
            assert abs(grad[a, b] - fd) / denom <= 1e-5, f"instance {i} ({a},{b})"


def test_criterion_11_power_iteration_matches_svd():
    for i in range(100):
        r = np.random.default_rng(11_000 + i)
        n, m = r.integers(1, 51, size=2)
        M = r.normal(size=(n, m)) * float(r.choice([1e-3, 1.0, 1e3]))
        want = float(np.linalg.svd(M, compute_uv=False)[0])
        got = largest_singular_value(M)
        assert abs(got - want) <= 1e-9 * max(1.0, want), f"matrix {i}: {got} vs {want}"
    assert largest_singular_value(np.diag([3.0, 4.0])) == 4.0
