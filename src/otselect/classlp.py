"""Joint optimization of class weights and transport plan.

Minimizes Tr(D^T P) over couplings P whose column sums hit the uniform
target marginal while all rows of one class share a single free row sum.
Class weights fall out of the optimal plan: w_i is n_i times the common
row sum of class i. Nonnegativity and unit sum of w are consequences of
the constraints, so they are asserted on the result rather than imposed.

Rows of the cost matrix must be grouped by class: the first n_1 rows are
class 0, the next n_2 class 1, and so on.

Large instances are solved exactly on a subset of the plan cells (a sparse
multiscale scheme after Schmitzer 2016, with the kernel truncation of
Schmitzer 2019 as the candidate rule). A short log-domain Sinkhorn run marks
the likely cells, a northwest-corner staircase per class keeps every class
feasible on its own, and HiGHS solves the LP on that set. Its duals then
price every cell in row blocks; the cells of negative reduced cost join and
the LP is solved again, until no cell enters. The duality certificate is
built from the final duals over all cells, so it is the same certificate as
for the LP over every cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .data import ClassWeights, TransportPlan, WEIGHT_CLAMP
from .errors import DimensionMismatch, MalformedFile, SolverFailure, TooManyClasses
from .ot import OtProblem, _northwest_corner, _transport_simplex

# Above this many cost entries the LP is solved on a candidate set of cells.
_RESTRICTED_MIN_CELLS = 50_000
_SEED_ITERS = 300  # Sinkhorn iterations behind the candidate set
_SLACK_WINDOW = 5.0  # candidate slack window, in units of the seed's epsilon
_BLOCK_CELLS = 1 << 20  # cells per row block when scanning the cost matrix


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
    sinkhorn_threshold: int | None = None,
) -> ClassWeightSolution:
    """LP-optimal class weights and plan for the given source-target costs.

    The weight variables are eliminated: a per-class auxiliary t_i equals the
    shared row sum of class i and w_i := n_i * t_i is recovered afterwards.
    Up to 50,000 cost entries the LP holds every plan cell. Larger instances
    solve it on a candidate set: the cells a short log-domain Sinkhorn run
    marks as likely, plus a northwest-corner staircase per class. Every cell
    is then priced with the LP duals, the cells with a negative reduced cost
    join the set, and the LP is solved again until none is left, so the
    result is exact at every size. Optimality is certified by a duality gap
    built from the duals over all cells and class variables. Instances with
    more than ``sinkhorn_threshold`` cost entries are routed to the entropic
    solver instead (the default, None, never routes).
    """
    D, counts = _check_inputs(D, class_counts)
    n, m = D.shape

    if sinkhorn_threshold is not None and n * m > sinkhorn_threshold:
        from .sinkhorn import sinkhorn_class_weights

        return sinkhorn_class_weights(D, counts)

    if n * m > _RESTRICTED_MIN_CELLS:
        cells = _candidate_cells(D, counts)
    else:
        cells = np.ones((n, m), dtype=bool)
    return _solve_on_cells(D, counts, cells)[0]


def _row_blocks(n: int, m: int):
    step = max(1, _BLOCK_CELLS // m)
    for lo in range(0, n, step):
        yield lo, min(n, lo + step)


def _staircases(counts: np.ndarray, m: int) -> np.ndarray:
    """Mask of one northwest-corner staircase per class between its rows and
    the columns, each under uniform marginals: every class alone is feasible."""
    cells = np.zeros((int(counts.sum()), m), dtype=bool)
    nu = np.full(m, 1.0 / m)
    start = 0
    for c in counts:
        bi, bj = _northwest_corner(np.full(c, 1.0 / c), nu)
        cells[start + np.asarray(bi), bj] = True
        start += c
    return cells


def _candidate_cells(D: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mask of the cells whose slack D_rj - f_r - g_j under a short Sinkhorn
    run's potentials is within 5 epsilon of their row's smallest, plus the
    staircases (kernel truncation, Schmitzer 2019)."""
    from .sinkhorn import SinkhornConfig, _sinkhorn_potentials

    _, g, eps, _, _ = _sinkhorn_potentials(D, counts, _row_classes(counts),
                                           SinkhornConfig(max_iters=_SEED_ITERS))
    cells = _staircases(counts, D.shape[1])
    for lo, hi in _row_blocks(*D.shape):
        slack = D[lo:hi] - g  # f_r is constant along a row
        cells[lo:hi] |= slack <= slack.min(axis=1, keepdims=True) + _SLACK_WINDOW * eps
    return cells


def _solve_on_cells(D: np.ndarray, counts: np.ndarray, cells: np.ndarray
                    ) -> tuple[ClassWeightSolution, int]:
    """Solve the LP restricted to the masked cells, price every cell with its
    duals, add the cells of negative reduced cost and repeat until none is
    added; return the solution and the number of LP solves.

    Each round adds at least one cell, so the loop ends, at the latest with
    every cell in the LP.
    """
    n, m = D.shape
    k = counts.size
    row_class = _row_classes(counts)
    b_eq = np.concatenate([np.full(m, 1.0 / m), np.zeros(n)])
    # Presolve stays on up to _RESTRICTED_MIN_CELLS, so those instances keep
    # their optimal vertex; above it, it costs a third of the LP's memory and
    # time.
    presolve = n * m <= _RESTRICTED_MIN_CELLS
    cells = cells.copy()
    rounds = 0
    while True:
        rounds += 1
        rows, cols = np.nonzero(cells)
        e = rows.size
        # Equality rows: column sums equal 1/m (duals y), and each row sum
        # minus its class variable equals 0 (duals z).
        A_eq = sp.csr_matrix(
            (np.concatenate([np.ones(2 * e), -np.ones(n)]),
             (np.concatenate([cols, m + rows, m + np.arange(n)]),
              np.concatenate([np.arange(e), np.arange(e), e + row_class]))),
            shape=(m + n, e + k))
        c = np.concatenate([D[rows, cols], np.zeros(k)])
        bounds = [(0.0, None)] * e + [(None, None)] * k
        res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs",
                      options={"presolve": presolve})
        if res.status != 0:
            raise SolverFailure(f"LP solver failed (status {res.status}): {res.message}")
        duals = np.asarray(res.eqlin.marginals, dtype=np.float64)
        y, z = duals[:m], duals[m:]

        # Price every cell: reduced cost D_rj - y_j - z_r.
        rc_min = np.inf
        added = False
        for lo, hi in _row_blocks(n, m):
            rc = D[lo:hi] - (y + z[lo:hi, None])
            rc_min = min(rc_min, float(rc.min()))
            enter = (rc < 0.0) & ~cells[lo:hi]
            if enter.any():
                cells[lo:hi] |= enter
                added = True
        if not added:
            break

    plan = np.zeros((n, m))
    plan[rows, cols] = res.x[:e]
    plan = np.maximum(plan, 0.0)
    objective = float(np.sum(D * plan))

    row_sums = plan.sum(axis=1)
    w = np.array([row_sums[row_class == i].sum() for i in range(k)])
    try:
        weights = ClassWeights(w / w.sum() if abs(w.sum() - 1.0) > 1e-12 else w)
    except MalformedFile as e:
        raise SolverFailure(f"recovered weights violate simplex invariants: {e}") from e

    # Certificate: a dual-feasible lower bound from the returned multipliers,
    # with the reduced costs of every cell and of the free class variables.
    viol_plan = max(0.0, -rc_min)
    viol_t = float(np.abs(np.bincount(row_class, weights=z, minlength=k)).max())
    dual_lower = float(b_eq @ duals) - viol_plan - viol_t
    gap = max(0.0, objective - dual_lower)

    transport = TransportPlan(
        plan,
        source_marginal=np.repeat(weights.weights / counts, counts),
        target_marginal=np.full(m, 1.0 / m),
        objective=objective,
        dual_gap=gap,
    )
    support_size = int((weights.weights > WEIGHT_CLAMP).sum())
    return ClassWeightSolution(weights, transport, objective, support_size), rounds


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
    shares the cost, so that basis stays optimal (dual-feasible) and is
    reused as it is when it is feasible for the new marginals; otherwise a
    few dual simplex pivots repair it, and the solve starts cold from the
    northwest corner only when the repair would take more than n + m pivots.
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
