"""Joint optimization of class weights and transport plan.

Minimizes Tr(D^T P) over couplings P whose column sums hit the uniform
target marginal while all rows of one class share a single free row sum.
Class weights fall out of the optimal plan: w_i is n_i times the common
row sum of class i. Nonnegativity and unit sum of w are consequences of
the constraints, so they are asserted on the result rather than imposed.

Rows of the cost matrix must be grouped by class: the first n_1 rows are
class 0, the next n_2 class 1, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .data import ClassWeights, TransportPlan, WEIGHT_CLAMP
from .errors import DimensionMismatch, MalformedFile, SolverFailure, TooManyClasses
from .ot import OtProblem, _transport_simplex

# Instances larger than this are routed to the entropic solver by default.
SINKHORN_ROUTE_THRESHOLD = 4_000_000


@dataclass(frozen=True)
class ClassWeightSolution:
    """Optimal or approximate (weights, plan) pair with its transport cost."""

    weights: ClassWeights
    plan: TransportPlan
    objective: float
    support_size: int
    converged: bool = True
    warning: str | None = None


def _check_inputs(D: np.ndarray, class_counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    D = np.ascontiguousarray(D, dtype=np.float64)
    counts = np.asarray(class_counts, dtype=np.int64)
    if D.ndim != 2 or D.shape[1] < 1:
        raise DimensionMismatch(f"cost matrix must be 2-D with columns, got {D.shape}")
    if counts.ndim != 1 or counts.size < 1 or counts.min() < 1:
        raise DimensionMismatch("class_counts must be positive integers")
    if counts.sum() != D.shape[0]:
        raise DimensionMismatch(
            f"class counts sum to {counts.sum()} but cost matrix has {D.shape[0]} rows"
        )
    if not np.isfinite(D).all() or D.min() < 0:
        raise MalformedFile("cost matrix must be finite and nonnegative")
    return D, counts


def _row_classes(counts: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(counts.size), counts)


def solve_class_weights(
    D: np.ndarray,
    class_counts: np.ndarray,
    *,
    sinkhorn_threshold: int | None = SINKHORN_ROUTE_THRESHOLD,
) -> ClassWeightSolution:
    """LP-optimal class weights and plan for the given source-target costs.

    The weight variables are eliminated: a per-class auxiliary t_i equals the
    shared row sum of class i and w_i := n_i * t_i is recovered afterwards.
    Optimality is certified by a duality gap built from the solver's duals.
    Instances with more than ``sinkhorn_threshold`` cost entries are routed
    to the entropic solver (pass None to force the exact LP).
    """
    D, counts = _check_inputs(D, class_counts)
    n, m = D.shape
    k = counts.size

    if sinkhorn_threshold is not None and n * m > sinkhorn_threshold:
        from .sinkhorn import sinkhorn_class_weights

        return sinkhorn_class_weights(D, counts)

    row_class = _row_classes(counts)
    nm = n * m

    # Equality block 1: column sums equal 1/m.
    col_rows = np.repeat(np.arange(m), n)
    col_cols = (np.tile(np.arange(n), m)) * m + np.repeat(np.arange(m), n)
    # Equality block 2: each row sum minus its class variable equals 0.
    row_rows = m + np.repeat(np.arange(n), m)
    row_cols = np.arange(nm)
    t_rows = m + np.arange(n)
    t_cols = nm + row_class

    rows = np.concatenate([col_rows, row_rows, t_rows])
    cols = np.concatenate([col_cols, row_cols, t_cols])
    vals = np.concatenate([np.ones(nm), np.ones(nm), -np.ones(n)])
    A_eq = sp.csr_matrix((vals, (rows, cols)), shape=(m + n, nm + k))
    b_eq = np.concatenate([np.full(m, 1.0 / m), np.zeros(n)])
    c = np.concatenate([D.ravel(), np.zeros(k)])
    bounds = [(0.0, None)] * nm + [(None, None)] * k

    res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        raise SolverFailure(f"LP solver failed (status {res.status}): {res.message}")

    plan = res.x[:nm].reshape(n, m)
    plan = np.maximum(plan, 0.0)
    objective = float(np.sum(D * plan))

    row_sums = plan.sum(axis=1)
    w = np.array([row_sums[row_class == i].sum() for i in range(k)])
    try:
        weights = ClassWeights(w / w.sum() if abs(w.sum() - 1.0) > 1e-12 else w)
    except MalformedFile as e:
        raise SolverFailure(f"recovered weights violate simplex invariants: {e}") from e

    # Certificate: a dual-feasible lower bound from the returned multipliers.
    y = np.asarray(res.eqlin.marginals, dtype=np.float64)
    reduced = c - A_eq.T @ y
    viol_plan = max(0.0, -float(reduced[:nm].min()))
    viol_t = float(np.abs(reduced[nm:]).max())
    dual_lower = float(b_eq @ y) - viol_plan - viol_t
    gap = max(0.0, objective - dual_lower)

    transport = TransportPlan(
        plan,
        source_marginal=np.repeat(weights.weights / counts, counts),
        target_marginal=np.full(m, 1.0 / m),
        objective=objective,
        dual_gap=gap,
    )
    support_size = int((weights.weights > WEIGHT_CLAMP).sum())
    return ClassWeightSolution(weights, transport, objective, support_size)


# ============================================================
# Brute-force oracle
# ============================================================


def _grid_compositions(k: int, steps: int):
    """Integer vectors of length k summing to `steps`, lexicographic order."""
    if k == 1:
        yield (steps,)
        return
    for head in range(steps + 1):
        for tail in _grid_compositions(k - 1, steps - head):
            yield (head,) + tail


def brute_force_class_weights(
    D: np.ndarray,
    class_counts: np.ndarray,
    grid_step: float,
) -> tuple[ClassWeights, float]:
    """Grid search over the weight simplex with an exact OT solve per point.

    Enumerates weight vectors with spacing ``grid_step`` (its reciprocal is
    rounded to an integer number of steps) and returns the grid minimizer and
    its objective; among equal objectives the first point in lexicographic
    order wins. The minimum over a finite subset of the feasible set, so
    the result is always >= the LP optimum. Supports up to 4 classes.

    The points are walked in lexicographic order, where most consecutive
    points differ by one step of weight between the last two classes. Each
    solve starts from the final basis of the point before it: every point
    shares the cost, so that basis stays optimal and is reused whenever it is
    feasible for the new marginals; otherwise the solve starts cold from the
    northwest corner.
    """
    D, counts = _check_inputs(D, class_counts)
    k = counts.size
    if k > 4:
        raise TooManyClasses(f"brute force enumerates at most 4 classes, got {k}")
    if not (0.0 < grid_step <= 1.0):
        raise ValueError(f"grid_step must be in (0, 1], got {grid_step}")
    steps = max(1, round(1.0 / grid_step))

    nu = np.full(D.shape[1], 1.0 / D.shape[1])
    best_obj, best_comp = np.inf, ()
    basis = None
    for comp in _grid_compositions(k, steps):
        w = np.asarray(comp, dtype=np.float64) / steps
        plan, basis = _transport_simplex(OtProblem(D, np.repeat(w / counts, counts), nu),
                                         basis=basis)
        if plan.objective < best_obj:  # strict: the earlier point wins a tie
            best_obj, best_comp = plan.objective, comp
    w = np.asarray(best_comp, dtype=np.float64) / steps
    return ClassWeights(w / w.sum()), float(best_obj)


def weights_to_sample_probabilities(w: ClassWeights, labels: np.ndarray) -> np.ndarray:
    """Per-sample probabilities: a sample of class i gets w_i / n_i."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise DimensionMismatch("labels must be a non-empty vector")
    if labels.min() < 0 or labels.max() >= w.k:
        raise DimensionMismatch(
            f"labels span [{labels.min()}, {labels.max()}] but weights have k={w.k}"
        )
    counts = np.bincount(labels, minlength=w.k)
    if (counts == 0).any():
        raise DimensionMismatch("every class must appear in labels")
    probs = (w.weights / counts)[labels]
    total = probs.sum()
    if abs(total - 1.0) > 1e-8:
        raise SolverFailure(f"sample probabilities sum to {total:.12g}")
    return probs
