"""Transfer-bound diagnostics for softmax heads on frozen features.

Every quantity in the bound

    eps_target(h') <= eps_source(h) + max{rho, 1} * W1_joint + alpha * beta * sigma_max(V_S - V_T)

is computed from data, and the inequalities behind it can be re-checked
numerically on discrete instances. ``rho`` is never claimed exactly: a
pairwise sample estimate gives a lower bound, and alpha * sigma_max(V) gives
an analytic upper bound for a linear-softmax head; soundness checks use the
upper bound. All randomized checks take explicit seeds.

The conditional label terms are closed-form total variations between the
two joints' label laws at each shared feature atom, so they solve no
transport problem.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import (DiscreteJointDistribution, FeatureMatrix, TransportPlan, _check_count,
                   _check_simplex)
from .distance import pairwise_distances
from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    InvalidK,
    NonFiniteValue,
    RowNotSimplex,
    SupportMismatch,
)
from .ot import OtProblem, joint_wasserstein, solve_exact_ot, wasserstein_distance
from .pipeline import SoftmaxHead, _select_and_train, softmax, weighted_cross_entropy
from .sinkhorn import sinkhorn_class_weights

_RHO_BLOCK = 1 << 18  # pair-difference entries per row block of estimate_rho


def softmax_lipschitz_constant(K: int) -> float:
    """sqrt(K-1)/K, the l2-to-l1 Lipschitz constant of the K-class softmax."""
    if int(K) != K or K < 2:
        raise InvalidK(f"need an integer K >= 2, got {K!r}")
    return math.sqrt(K - 1) / K

def verify_softmax_lipschitz(K: int, trials: int, seed: int) -> float:
    """Max of ||softmax(v) - softmax(v')||_1 / ||v - v'||_2 over random pairs.

    Logits are drawn zero-centered at scales 0.1, 1 and 10 (cycled across
    trials); pairs closer than 1e-12 are skipped.
    """
    _check_count("trials", trials, 1)
    if int(K) != K or K < 2:
        raise InvalidK(f"need an integer K >= 2, got {K!r}")
    K = int(K)
    rng = np.random.default_rng(seed)
    scales = (0.1, 1.0, 10.0)
    best = 0.0
    for i, scale in enumerate(scales):
        count = trials // len(scales) + (i < trials % len(scales))
        v = rng.normal(0.0, scale, size=(count, K))
        u = rng.normal(0.0, scale, size=(count, K))
        gaps = np.linalg.norm(v - u, axis=1)
        keep = gaps >= 1e-12
        if not keep.any():
            continue
        sv = softmax(v[keep])
        su = softmax(u[keep])
        ratios = np.abs(sv - su).sum(axis=1) / gaps[keep]
        best = max(best, float(ratios.max()))
    return best


def largest_singular_value(M: np.ndarray) -> float:
    """sigma_max, the spectral norm, from LAPACK's singular value decomposition."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.size == 0:
        raise DimensionMismatch("need a non-empty 2-d matrix")
    if not np.isfinite(A).all():
        raise NonFiniteValue("matrix entries must be finite")
    if not A.any():
        return 0.0
    return float(np.linalg.norm(A, 2))


def induced_error(probs: np.ndarray, labels_onehot: np.ndarray,
                  masses: np.ndarray | None = None) -> float:
    """(1/2) * E ||h(x) - y||_1: the expected 0-1 error of the classifier that
    samples its label from the row distribution h(x). Uniform weights by
    default; pass ``masses`` for a weighted empirical measure."""
    P = np.asarray(probs, dtype=np.float64)
    Y = np.asarray(labels_onehot, dtype=np.float64)
    if P.ndim != 2 or P.shape != Y.shape:
        raise DimensionMismatch("probs and one-hot labels must have equal 2-d shapes")
    if not np.isfinite(P).all():
        raise NonFiniteValue("probability rows must be finite")
    row_sums = P.sum(axis=1)
    if P.min() < -1e-8 or np.abs(row_sums - 1.0).max() > 1e-8:
        raise RowNotSimplex("each probability row must lie in the simplex")
    if not ((Y == 0.0) | (Y == 1.0)).all() or not (Y.sum(axis=1) == 1.0).all():
        raise DimensionMismatch("labels must be exact one-hot rows")
    per_row = 0.5 * np.abs(P - Y).sum(axis=1)
    if masses is None:
        return float(per_row.mean())
    return float(_check_simplex(masses, P.shape[0], "masses") @ per_row)


def estimate_rho(head: SoftmaxHead, features: FeatureMatrix) -> tuple[float, float]:
    """(pairwise lower estimate, analytic upper bound alpha * sigma_max(V)).

    The lower value is max ||h(x)-h(x')||_1 / ||x-x'||_2 over sample pairs,
    a lower bound on the true Lipschitz modulus; pairs closer than 1e-12
    are skipped, and all-degenerate inputs are an error.
    """
    Z = features.values
    n = Z.shape[0]
    if n < 2:
        raise InsufficientSamples("need at least two feature rows")
    P = head.predict_proba(Z)
    best = -1.0
    # Rows lo..hi-1 against every later row: pair (i, j) sits at [i - lo, j - lo - 1].
    step = max(1, _RHO_BLOCK // (n * max(Z.shape[1], P.shape[1])))
    for lo in range(0, n - 1, step):
        hi = min(n - 1, lo + step)
        diff = Z[lo + 1:] - Z[lo:hi, None]
        dz = np.sqrt(np.add.reduce(np.multiply(diff, diff, out=diff), axis=2))
        later = np.arange(n - lo - 1) >= np.arange(hi - lo)[:, None]
        keep = later & (dz >= 1e-12)
        if keep.any():
            diff = P[lo + 1:] - P[lo:hi, None]
            dp = np.add.reduce(np.abs(diff, out=diff), axis=2)
            best = max(best, float((dp[keep] / dz[keep]).max()))
    if best < 0.0:
        raise InsufficientSamples("all sample pairs are degenerate")
    return best, _rho_upper(head)


def _rho_upper(head: SoftmaxHead) -> float:
    """alpha * sigma_max(V), the analytic upper bound on the head's modulus."""
    return softmax_lipschitz_constant(head.n_classes) * largest_singular_value(head.weight_matrix)


def _error_on(head: SoftmaxHead, joint: DiscreteJointDistribution) -> float:
    """The head's induced error on a joint distribution."""
    pos = head.class_position(joint.labels)
    Y = np.zeros((pos.size, head.n_classes))
    Y[np.arange(pos.size), pos] = 1.0
    return induced_error(head.predict_proba(joint.features), Y, masses=joint.masses)


def check_error_difference_bound(p: DiscreteJointDistribution,
                                 q: DiscreteJointDistribution,
                                 head: SoftmaxHead) -> tuple[float, float, bool]:
    """|induced error on p - induced error on q| against max{rho,1} * W1_joint.

    Uses the analytic upper bound for rho so a True result is sound; the
    joint ground cost is feature distance plus a 0-1 label term.
    """
    if p.features.shape[1] != q.features.shape[1]:
        raise DimensionMismatch("joints must share the feature dimension")
    lhs = abs(_error_on(head, p) - _error_on(head, q))
    w1 = joint_wasserstein(p, q, label_cost=1.0)
    rhs = max(_rho_upper(head), 1.0) * w1
    return lhs, rhs, bool(lhs <= rhs + 1e-9)


def assemble_transfer_bound(eps_source_pretrained: float, w1: float, rho: float,
                            alpha: float, beta: float, sigma_max_diff: float) -> float:
    """eps_source + max{rho, 1} * w1 + alpha * beta * sigma_max_diff."""
    vals = (eps_source_pretrained, w1, rho, alpha, beta, sigma_max_diff)
    if not all(math.isfinite(v) for v in vals):
        raise NonFiniteValue("bound terms must be finite")
    if min(w1, rho, alpha, beta, sigma_max_diff) < 0 or not 0 <= eps_source_pretrained <= 1:
        raise ValueError("bound terms out of range")
    return eps_source_pretrained + max(rho, 1.0) * w1 + alpha * beta * sigma_max_diff


def beta_bound(features: FeatureMatrix) -> float:
    """Largest row l2 norm; every evaluated feature vector is within it."""
    return float(np.linalg.norm(features.values, axis=1).max())


# ============================================================
# Conditional label terms
# ============================================================


def _atom_tables(p: DiscreteJointDistribution, q: DiscreteJointDistribution
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shared feature support and each side's (atom x label) mass table.

    Feature atoms are matched by their exact bytes and listed in order of
    first appearance over p's atoms, then q's; the label columns are the
    sorted union of both label sets.
    """
    if p.features.shape[1] != q.features.shape[1]:
        raise DimensionMismatch("joint distributions disagree on feature dimension")
    feats = np.vstack([p.features, q.features])
    _, first, inv = np.unique(feats.view(np.int64), axis=0, return_index=True,
                              return_inverse=True)
    order = np.argsort(first)
    atom = np.argsort(order)[inv.reshape(-1)]  # the place of each atom's feature in the support
    side = np.repeat([0, first.size], [p.masses.size, q.masses.size])  # q's table follows p's
    labels = np.union1d(p.labels, q.labels)
    col = np.searchsorted(labels, np.concatenate([p.labels, q.labels]))
    tp, tq = np.bincount((side + atom) * labels.size + col,
                         weights=np.concatenate([p.masses, q.masses]),
                         minlength=2 * first.size * labels.size).reshape(2, first.size, -1)
    return feats[first[order]], tp, tq


def _label_tv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Total variation between the label laws in matching rows of two mass
    tables: their W1 under the 0-1 label cost (Gibbs & Su 2002)."""
    a = a / a.sum(axis=1, keepdims=True)
    b = b / b.sum(axis=1, keepdims=True)
    return 0.5 * np.abs(a - b).sum(axis=1)


def _conditional_term(tp: np.ndarray, tq: np.ndarray, weighting: str) -> float:
    """``conditional_wasserstein_term`` at unit label cost, from the tables."""
    mp, mq = tp.sum(axis=1), tq.sum(axis=1)
    w, other = (mp, mq) if weighting == "source" else (mq, mp)
    if ((w > 0.0) & (other <= 0.0)).any():
        raise SupportMismatch(
            "a feature atom of the weighting marginal is missing from the other support"
        )
    keep = w > 0.0
    return float(w[keep] @ _label_tv(tp[keep], tq[keep]) / w.sum())


def conditional_wasserstein_term(p: DiscreteJointDistribution,
                                 q: DiscreteJointDistribution,
                                 weighting: str = "source",
                                 label_cost: float = 1.0) -> float:
    """Expected per-feature W1 between the two conditional label distributions.

    The expectation runs over the feature marginal of ``p`` (weighting
    "source") or ``q`` ("target"); features are matched by exact equality.
    Under the cost label_cost * [y != y'] each W1 is label_cost times the
    total variation distance, so no transport problem is solved.
    """
    if weighting not in ("source", "target"):
        raise ValueError(f"weighting must be 'source' or 'target', got {weighting!r}")
    if label_cost < 0:
        raise ValueError("label_cost must be nonnegative")
    _, tp, tq = _atom_tables(p, q)
    return label_cost * _conditional_term(tp, tq, weighting)


# ============================================================
# Full report
# ============================================================


@dataclass(frozen=True)
class BoundReport:
    """Every measured term of the transfer bound for one source/target pair.

    ``cond_term_source``, ``cond_term_target`` and ``rho_hat`` are None when
    not computable on the given data (conditional terms need a shared
    feature support; the pairwise rho estimate needs non-degenerate pairs).
    """

    eps_source: float
    eps_target: float
    w1_marginal: float
    w1_joint: float
    cond_term_source: float | None
    cond_term_target: float | None
    rho_hat: float | None
    rho_upper: float
    alpha: float
    beta: float
    sigma_max_diff: float
    bound_value: float
    holds: bool
    lambda_hat: float

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        doc["empirical_lambda_hat"] = doc.pop("lambda_hat")
        return doc


def compute_bound_report(pretrained: SoftmaxHead, finetuned: SoftmaxHead,
                         source: DiscreteJointDistribution,
                         target: DiscreteJointDistribution,
                         *, label_cost: float = 1.0) -> BoundReport:
    """Measure every bound term between a weighted source joint and a target joint.

    Both heads must score the same class list so the weight-matrix difference
    is well defined; labels of both joints must belong to that list.
    ``lambda_hat`` is the smaller of the two heads' summed source+target
    errors, an empirical stand-in for the best joint error (it is a minimum
    over the two trained heads only, not over the hypothesis class).
    """
    if pretrained.class_list.shape != finetuned.class_list.shape or (
        pretrained.class_list != finetuned.class_list
    ).any():
        raise DimensionMismatch("heads must share an identical class list")
    if pretrained.weight_matrix.shape != finetuned.weight_matrix.shape:
        raise DimensionMismatch("heads must share the weight-matrix shape")

    eps_source, pre_target = _error_on(pretrained, source), _error_on(pretrained, target)
    fine_source, eps_target = _error_on(finetuned, source), _error_on(finetuned, target)
    src_feats = FeatureMatrix(source.features)
    tgt_feats = FeatureMatrix(target.features)

    D = pairwise_distances(src_feats, tgt_feats)
    w1_marginal = solve_exact_ot(OtProblem(D, source.masses, target.masses)).objective
    w1_joint = joint_wasserstein(source, target, label_cost=label_cost)
    _, tp, tq = _atom_tables(source, target)

    def _cond(weighting: str) -> float | None:
        try:
            return label_cost * _conditional_term(tp, tq, weighting)
        except SupportMismatch:
            return None

    try:
        stacked = FeatureMatrix(np.vstack([source.features, target.features]))
        rho_hat, rho_upper = estimate_rho(pretrained, stacked)
    except InsufficientSamples:
        rho_hat = None
        rho_upper = _rho_upper(pretrained)

    alpha = softmax_lipschitz_constant(pretrained.n_classes)
    beta = max(beta_bound(src_feats), beta_bound(tgt_feats))
    sigma_max_diff = largest_singular_value(
        pretrained.weight_matrix - finetuned.weight_matrix
    )
    bound_value = assemble_transfer_bound(
        eps_source, w1_joint, rho_upper, alpha, beta, sigma_max_diff
    )
    lambda_hat = min(eps_source + pre_target, fine_source + eps_target)
    return BoundReport(
        eps_source=float(eps_source),
        eps_target=float(eps_target),
        w1_marginal=float(w1_marginal),
        w1_joint=float(w1_joint),
        cond_term_source=_cond("source"),
        cond_term_target=_cond("target"),
        rho_hat=rho_hat,
        rho_upper=float(rho_upper),
        alpha=float(alpha),
        beta=float(beta),
        sigma_max_diff=float(sigma_max_diff),
        bound_value=float(bound_value),
        holds=bool(eps_target <= bound_value + 1e-12),
        lambda_hat=float(lambda_hat),
    )


def end_to_end_bound_report(source, target_train, target_test, *, cfg=None,
                            source_class_ids=None, target_class_ids=None,
                            skip_finetune: bool = False) -> BoundReport:
    """Select weights, train both heads over the union class space, and report.

    The bound compares one fixed output space before and after fine-tuning,
    so both heads are trained over the union of source and target class ids
    (rows of classes absent from a phase's data stay where initialization
    put them). The source joint carries the selection's sample weights; the
    target joint is the uniform empirical measure on the test split.
    With ``skip_finetune`` the fine-tuned head is the pre-trained head
    itself, which collapses the weight-shift term to exactly zero.
    """
    t = _select_and_train(source, target_train, "wass", cfg,
                          source_class_ids=source_class_ids,
                          target_class_ids=target_class_ids,
                          union=True, finetune=not skip_finetune)
    source_joint = DiscreteJointDistribution.from_dataset(
        t.source_sorted, sample_probs=t.sample_probs, label_ids=t.source_ids
    )
    target_joint = DiscreteJointDistribution.from_dataset(target_test, label_ids=t.target_ids)
    return compute_bound_report(t.pretrained, t.finetuned, source_joint, target_joint)


# ============================================================
# Property suite
# ============================================================


def random_joint_pair_shared_support(rng: np.random.Generator, equal_marginals: bool = False
                                     ) -> tuple[DiscreteJointDistribution,
                                                DiscreteJointDistribution]:
    """Two joints over one feature support with Dirichlet masses and conditionals.

    The support is 2-6 points drawn uniformly in the unit square, each
    carrying 2-4 labels. With ``equal_marginals`` both joints also share the
    feature marginal, the regime where the marginal-plus-conditional
    decomposition provably holds; otherwise each side draws its own marginal
    masses.
    """
    s = int(rng.integers(2, 7))
    L = int(rng.integers(2, 5))
    z = rng.random((s, 2))
    shared_mz = rng.dirichlet(np.ones(s)) if equal_marginals else None

    def draw() -> DiscreteJointDistribution:
        mz = shared_mz if shared_mz is not None else rng.dirichlet(np.ones(s))
        cond = rng.dirichlet(np.ones(L), size=s)
        feats = np.repeat(z, L, axis=0)
        labels = np.tile(np.arange(L), s)
        masses = (mz[:, None] * cond).ravel()
        return DiscreteJointDistribution(feats, labels, masses / masses.sum())

    return draw(), draw()


def random_joint_pair(rng: np.random.Generator, n_labels: int, dim: int
                      ) -> tuple[DiscreteJointDistribution, DiscreteJointDistribution]:
    """Two unrelated small joints over a common label vocabulary."""

    def draw() -> DiscreteJointDistribution:
        na = int(rng.integers(2, 7))
        scale = float(rng.choice([0.3, 1.0, 3.0]))
        feats = rng.normal(0.0, scale, size=(na, dim))
        labels = rng.integers(0, n_labels, na)
        masses = rng.dirichlet(np.ones(na))
        return DiscreteJointDistribution(feats, labels, masses)

    return draw(), draw()


def _decomposition_terms(p: DiscreteJointDistribution, q: DiscreteJointDistribution
                         ) -> tuple[float, TransportPlan, np.ndarray, np.ndarray]:
    """Joint W1, the optimal coupling of the two feature marginals over the
    shared support, and both (atom x label) mass tables."""
    Z, tp, tq = _atom_tables(p, q)
    D = pairwise_distances(FeatureMatrix(Z), FeatureMatrix(Z))
    marg_plan = solve_exact_ot(OtProblem(D, tp.sum(axis=1), tq.sum(axis=1)))
    return joint_wasserstein(p, q, label_cost=1.0), marg_plan, tp, tq


def decomposition_check(p: DiscreteJointDistribution, q: DiscreteJointDistribution
                        ) -> tuple[float, float, bool]:
    """Joint W1 against marginal W1 plus the smaller conditional term.

    The decomposition is checked, not assumed: it can fail on joints whose
    label structure is tied to where each distribution puts feature mass
    (see the shift-coupling test in the suite), so callers get the measured
    sides and the verdict rather than a guarantee.
    """
    lhs, marg_plan, tp, tq = _decomposition_terms(p, q)
    cond = min(_conditional_term(tp, tq, "source"), _conditional_term(tp, tq, "target"))
    rhs = marg_plan.objective + cond
    return float(lhs), float(rhs), bool(lhs <= rhs + 1e-7)


def glued_decomposition_check(p: DiscreteJointDistribution,
                              q: DiscreteJointDistribution
                              ) -> tuple[float, float, bool]:
    """Joint W1 against marginal W1 plus conditionals along the marginal coupling.

    Unlike the same-atom decomposition, the conditional distance here is
    taken between p's conditional at z and q's conditional at z' for every
    (z, z') pair the optimal feature coupling uses. Gluing label couplings
    on top of that feature coupling yields a feasible joint coupling, so
    this inequality holds for every pair of joints.
    """
    lhs, marg_plan, tp, tq = _decomposition_terms(p, q)
    i, j = np.nonzero(marg_plan.plan > 0.0)
    coupled = marg_plan.plan[i, j] @ _label_tv(tp[i], tq[j])
    rhs = marg_plan.objective + coupled
    return float(lhs), float(rhs), bool(lhs <= rhs + 1e-7)


def _check_softmax_lipschitz(seed: int, trials: int) -> tuple[bool, str]:
    worst = ""
    ok = True
    for K in (2, 3, 5, 10):
        alpha = softmax_lipschitz_constant(K)
        ratio = verify_softmax_lipschitz(K, trials, seed + K)
        if ratio > alpha + 1e-9:
            ok = False
        worst += f" K={K}:{ratio:.6f}<={alpha:.6f}"
    return ok, worst.strip()


def _check_singular_surrogate(rng: np.random.Generator, pairs: int) -> tuple[bool, str]:
    worst = -np.inf
    for _ in range(pairs):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        M = rng.normal(0.0, float(rng.choice([0.1, 1.0, 10.0])), size=(n, m))
        u = rng.normal(size=m)
        norm = np.linalg.norm(u)
        if norm < 1e-12:
            continue
        u /= norm
        slack = float(np.linalg.norm(M @ u)) - largest_singular_value(M)
        worst = max(worst, slack)
    return bool(worst <= 1e-9), f"max ||Mu|| - sigma_max = {worst:.3e}"


def _check_induced_error_mc(rng: np.random.Generator, draws: int) -> tuple[bool, str]:
    ok = True
    detail = []
    for _ in range(5):
        n, K = 6, 4
        P = rng.dirichlet(np.ones(K), size=n)
        true = rng.integers(0, K, n)
        onehot = np.zeros((n, K))
        onehot[np.arange(n), true] = 1.0
        exact = induced_error(P, onehot)
        rows = rng.integers(0, n, draws)
        u = rng.random(draws)
        sampled = (u[:, None] > P[rows].cumsum(axis=1)).sum(axis=1)
        mc = float(np.mean(sampled != true[rows]))
        sigma = math.sqrt(max(exact * (1.0 - exact), 1e-12) / draws)
        if abs(mc - exact) > 3.0 * sigma + 1e-9:
            ok = False
        detail.append(f"{abs(mc - exact):.2e}<= {3 * sigma:.2e}")
    return ok, "; ".join(detail)


def _check_error_difference(rng: np.random.Generator, instances: int) -> tuple[bool, str]:
    failures = 0
    for _ in range(instances):
        K = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 4))
        p, q = random_joint_pair(rng, K, dim)
        V = rng.normal(size=(K, dim)) * float(rng.choice([0.2, 1.0, 5.0]))
        head = SoftmaxHead(V, np.arange(K))
        _, _, holds = check_error_difference_bound(p, q, head)
        failures += 0 if holds else 1
    return failures == 0, f"{failures}/{instances} violations"


def _check_decomposition(rng: np.random.Generator, instances: int, check,
                         equal_marginals: bool = False) -> tuple[bool, str]:
    """Count the random joint pairs on which ``check(p, q)`` does not hold."""
    failures = 0
    worst = 0.0
    for _ in range(instances):
        p, q = random_joint_pair_shared_support(rng, equal_marginals=equal_marginals)
        lhs, rhs, holds = check(p, q)
        if not holds:
            failures += 1
            worst = max(worst, lhs - rhs)
    return failures == 0, f"{failures}/{instances} violations, worst excess {worst:.3e}"


def _check_bound_collapse(rng: np.random.Generator, instances: int) -> tuple[bool, str]:
    for _ in range(instances):
        eps = float(rng.random())
        w1 = float(rng.random() * 3)
        rho = float(rng.random() * 4)
        alpha = float(rng.random())
        beta = float(rng.random() * 5)
        got = assemble_transfer_bound(eps, w1, rho, alpha, beta, 0.0)
        if got != eps + max(rho, 1.0) * w1:
            return False, "collapse not exact"
    return True, "exact on all instances"


def _check_ot_metric(rng: np.random.Generator, instances: int) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(instances):
        s = int(rng.integers(2, 8))
        pts = rng.normal(size=(s, 2))
        D = pairwise_distances(FeatureMatrix(pts), FeatureMatrix(pts))
        mu = rng.dirichlet(np.ones(s))
        nu = rng.dirichlet(np.ones(s))
        rho_m = rng.dirichlet(np.ones(s))
        self_dist = wasserstein_distance(D, mu, mu)
        ab = wasserstein_distance(D, mu, nu)
        ba = wasserstein_distance(D, nu, mu)
        ac = wasserstein_distance(D, mu, rho_m)
        cb = wasserstein_distance(D, rho_m, nu)
        worst = max(worst, self_dist, abs(ab - ba) - 1e-8, ab - (ac + cb) - 1e-7)
    return bool(worst <= 1e-8), f"worst slack {worst:.3e}"


def _check_ot_duality(rng: np.random.Generator, instances: int) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(2, 12))
        C = rng.random((n, m)) * float(rng.choice([1.0, 50.0]))
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(m))
        plan = solve_exact_ot(OtProblem(C, mu, nu))
        worst = max(worst, plan.dual_gap / (1.0 + abs(plan.objective)))
    return bool(worst <= 1e-7), f"worst relative duality gap {worst:.3e}"


def _check_sinkhorn_feasibility(rng: np.random.Generator, instances: int) -> tuple[bool, str]:
    worst_col = 0.0
    worst_spread = 0.0
    for _ in range(instances):
        counts = rng.integers(2, 5, size=int(rng.integers(2, 4)))
        n = int(counts.sum())
        m = int(rng.integers(3, 7))
        D = rng.random((n, m))
        sol = sinkhorn_class_weights(D, counts)
        P = sol.plan.plan
        worst_col = max(worst_col, float(np.abs(P.sum(axis=0) - 1.0 / m).max()))
        start = 0
        for c in counts:
            block = P[start:start + c].sum(axis=1)
            worst_spread = max(worst_spread, float(block.max() - block.min()))
            start += c
    ok = worst_col <= 1e-9 and worst_spread <= 1e-6
    return ok, f"col dev {worst_col:.2e}, row spread {worst_spread:.2e}"


def _check_head_gradient(rng: np.random.Generator, instances: int) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(instances):
        n, d, K = 12, 3, 4
        Z = rng.normal(size=(n, d))
        V = rng.normal(size=(K, d)) * 0.5
        y = rng.integers(0, K, n)
        p = rng.dirichlet(np.ones(n))
        l2 = float(rng.choice([0.0, 0.1]))
        _, grad = weighted_cross_entropy(V, Z, y, p, l2)
        num = np.zeros_like(V)
        h = 1e-6
        for a in range(K):
            for b in range(d):
                Vp = V.copy()
                Vp[a, b] += h
                Vm = V.copy()
                Vm[a, b] -= h
                lp, _ = weighted_cross_entropy(Vp, Z, y, p, l2)
                lm, _ = weighted_cross_entropy(Vm, Z, y, p, l2)
                num[a, b] = (lp - lm) / (2 * h)
        rel = float(np.abs(num - grad).max() / (1.0 + np.abs(grad).max()))
        worst = max(worst, rel)
    return bool(worst <= 1e-6), f"max relative gradient error {worst:.3e}"


def run_verification_suite(seed: int, trials: int) -> dict:
    """Run every numerical property check; returns a JSON-ready summary.

    ``trials`` controls the sampling effort of the Monte Carlo checks; the
    fixed-size inequality suites always run at their full instance counts.
    """
    _check_count("trials", trials, 1)
    rng = np.random.default_rng(seed)
    checks = [
        ("softmax_lipschitz", lambda: _check_softmax_lipschitz(seed, trials)),
        ("singular_value_surrogate",
         lambda: _check_singular_surrogate(rng, min(max(trials, 100), 1000))),
        ("induced_error_monte_carlo", lambda: _check_induced_error_mc(rng, max(trials, 1000))),
        ("error_difference_bound", lambda: _check_error_difference(rng, 200)),
        ("joint_decomposition", lambda: _check_decomposition(rng, 200, decomposition_check)),
        ("joint_decomposition_equal_marginals",
         lambda: _check_decomposition(rng, 200, decomposition_check, equal_marginals=True)),
        ("joint_decomposition_glued",
         lambda: _check_decomposition(rng, 100, glued_decomposition_check)),
        ("transfer_bound_collapse", lambda: _check_bound_collapse(rng, 100)),
        ("ot_metric_properties", lambda: _check_ot_metric(rng, 40)),
        ("ot_duality_gap", lambda: _check_ot_duality(rng, 40)),
        ("sinkhorn_feasibility", lambda: _check_sinkhorn_feasibility(rng, 8)),
        ("training_gradient", lambda: _check_head_gradient(rng, 5)),
    ]
    results = []
    for name, fn in checks:
        passed, detail = fn()
        results.append({"name": name, "passed": bool(passed), "detail": detail})
    return {
        "seed": int(seed),
        "trials": int(trials),
        "checks": results,
        "all_passed": all(r["passed"] for r in results),
    }
