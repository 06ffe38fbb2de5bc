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
Schmitzer 2019 as the candidate rule). A short, loosely stopped log-domain
Sinkhorn run at a small epsilon, in float32 on D / max D, marks the likely
cells (their slack window is tested in float64 on D), a staircase spanning
tree per class keeps every class feasible on its own, and HiGHS solves the LP
on that set. Its duals then price every cell in row blocks; the cells of
negative reduced cost join and the LP is solved again, until no cell enters.
The final row duals are certified over every cell by the c-transform bound
that the entropic solver uses too (``_certified_solution``).

HiGHS is driven through its own bindings, which scipy ships as
``scipy.optimize._highspy._core``, with its dual simplex and presolve off
(``_run_highs``, the one place that touches it). scipy is needed only for
HiGHS, and is imported on the first LP, not with the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ClassWeights, TransportPlan, WEIGHT_CLAMP
from .errors import DimensionMismatch, MalformedFile, SolverFailure, TooManyClasses
from .ot import _dense_plan, _solve

# Above this many cost entries the LP is solved on a candidate set of cells.
# On gate-03-shaped instances (2-4 classes, 2-D; six per size, best of five)
# the two paths tie at 1,000-2,000 cells, and the restricted one is 1.1x faster
# at 3,000 cells, 1.3-1.45x at 4,000-8,000 and 1.7x at 16,000; at gate 01's
# sizes (at most 540 cells) the full LP is 1.5x faster. Up to 4,000 cells,
# which holds every LP of gates 01 and 03, the full LP stays: the restricted
# one would save at most 5 ms each and move their objectives in the last bits.
_RESTRICTED_MIN_CELLS = 4_000
_SEED_EPS = 1e-3  # the seed's target epsilon, in units of mean D
_SEED_TOL = 1e-2  # column violation at which the seed stops
_SEED_ITERS = 40  # most Sinkhorn iterations behind the candidate set
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


def _class_means(values: np.ndarray, row_class: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of ``values`` over the rows of each class, in the dtype of ``values``."""
    means = np.bincount(row_class, weights=values, minlength=counts.size) / counts
    return means.astype(values.dtype, copy=False)


def solve_class_weights(
    D: np.ndarray,
    class_counts: np.ndarray,
    *,
    sinkhorn_threshold: int | None = None,
) -> ClassWeightSolution:
    """LP-optimal class weights and plan for the given source-target costs.

    The weight variables are eliminated: a per-class auxiliary t_i equals the
    shared row sum of class i and w_i := n_i * t_i is recovered afterwards.
    Up to 4,000 cost entries the LP holds every plan cell. Larger instances
    solve it on a candidate set: the cells a short log-domain Sinkhorn run
    marks as likely, plus a staircase spanning tree per class. Every cell
    is then priced with the LP duals, the cells with a negative reduced cost
    join the set, and the LP is solved again until none is left, so the
    result is exact at every size. A c-transform duality gap over all cells
    above 1e-9 of the largest cost raises ``SolverFailure``. Instances with
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
    """Mask of one staircase spanning tree per class between its rows and the
    columns, each under uniform marginals: every class alone is feasible.
    Row i of a c-row class covers columns end(i - 1)..end(i), with
    end(i) = min((i + 1)·m // c, m - 1) and end(-1) = 0: the northwest-corner
    tree, with ties broken as the perturbed least-cost rule on the cost i + j
    breaks them."""
    ends = [np.minimum(np.arange(c + 1) * m // c, m - 1) for c in counts.tolist()]
    lo = np.concatenate([e[:-1] for e in ends])[:, None]
    hi = np.concatenate([e[1:] for e in ends])[:, None]
    cols = np.arange(m)
    return (lo <= cols) & (cols <= hi)


def _candidate_cells(D: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mask of the cells whose slack D_rj - f_r - g_j under the potentials of
    a short, loose Sinkhorn run (the _SEED_* constants) is within 5 epsilon of
    their row's smallest, plus the staircases (kernel truncation, Schmitzer
    2019). The pricing loop makes up for a loose seed, so it is cut early.

    The seed only picks cells, so it runs in float32, on D / max D: unlike D
    itself, that matrix fits float32 at any cost scale. Its g and epsilon are
    scaled back to D's units, and the window is tested in float64 on D."""
    from .sinkhorn import SinkhornConfig, _sinkhorn_potentials

    scale = float(D.max()) or 1.0
    Dn = (D / scale).astype(np.float32)
    cfg = SinkhornConfig(epsilon=_SEED_EPS * float(Dn.mean()) or None,  # None: all-zero D
                         max_iters=_SEED_ITERS, tol=_SEED_TOL)
    _, g, eps, _, _, _ = _sinkhorn_potentials(Dn, counts, _row_classes(counts), cfg)
    g, eps = scale * g.astype(np.float64), scale * eps
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
    # HiGHS's tolerances are absolute, so it solves on D / max D and the
    # duals are scaled back: the result is then exact at any cost scale.
    scale = float(D.max()) or 1.0
    cells = cells.copy()
    rounds = 0
    while True:
        rounds += 1
        rows, cols = np.nonzero(cells)
        x, duals = _run_highs(D[rows, cols] / scale, rows, cols, counts, m)
        duals = scale * duals
        y, z = duals[:m], duals[m:]

        # Price every cell: reduced cost D_rj - y_j - z_r.
        added = False
        for lo, hi in _row_blocks(n, m):
            enter = (D[lo:hi] - (y + z[lo:hi, None]) < 0.0) & ~cells[lo:hi]
            if enter.any():
                cells[lo:hi] |= enter
                added = True
        if not added:
            break

    plan = np.zeros((n, m))
    plan[rows, cols] = x
    sol = _certified_solution(D, counts, np.maximum(plan, 0.0), z)
    if sol.plan.dual_gap > 1e-9 * scale:
        raise SolverFailure(f"class LP duality gap {sol.plan.dual_gap:.3e} above 1e-9 * max D")
    return sol, rounds


def _run_highs(cost: np.ndarray, rows: np.ndarray, cols: np.ndarray, counts: np.ndarray,
               m: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve the class LP on the cells (rows, cols) with HiGHS's dual simplex;
    return the cells' values and the row duals (y for the m column sums, then
    z for the n row ties), in the units of ``cost``.

    Rows: each target column's mass equals 1/m, and each source row's mass
    minus its class variable equals 0. Columns, in this order: one per cell,
    with a one in its target column's row and in its source row's row, then
    one free variable per class, with -1 on its class's rows, which are
    consecutive, ``counts`` of them per class. The matrix is filled
    column-wise in closed form. Presolve is off: on these LPs it
    changes neither the iteration count nor the plan, and on gate 03's it
    adds about a fifth to each solve.
    """
    try:
        from scipy.optimize._highspy import _core as highs
    except ImportError as e:
        raise ImportError("otselect needs scipy>=1.17, which ships HiGHS's own bindings "
                          "as scipy.optimize._highspy._core") from e

    e, n, k = rows.size, int(counts.sum()), counts.size
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = e + k
    lp.num_row_ = lp.a_matrix_.num_row_ = m + n
    lp.col_cost_ = np.concatenate([cost, np.zeros(k)])
    lp.col_lower_ = np.concatenate([np.zeros(e), np.full(k, -highs.kHighsInf)])
    lp.col_upper_ = np.full(e + k, highs.kHighsInf)
    lp.row_lower_ = lp.row_upper_ = np.concatenate([np.full(m, 1.0 / m), np.zeros(n)])
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate(
        [np.arange(0, 2 * e + 1, 2), 2 * e + np.cumsum(counts)]
    ).astype(np.int32)
    lp.a_matrix_.index_ = np.concatenate(
        [np.stack([cols, m + rows], axis=1).ravel(), m + np.arange(n)]
    ).astype(np.int32)
    lp.a_matrix_.value_ = np.concatenate([np.ones(2 * e), -np.ones(n)])

    options = highs.HighsOptions()
    options.presolve = "off"
    options.simplex_strategy = 1  # dual simplex
    options.primal_feasibility_tolerance = options.dual_feasibility_tolerance = 1e-9
    options.output_flag = options.log_to_console = False
    solver = highs._Highs()
    solver.passOptions(options)
    if (solver.passModel(lp) == highs.HighsStatus.kError
            or solver.run() == highs.HighsStatus.kError
            or solver.getModelStatus() != highs.HighsModelStatus.kOptimal):
        raise SolverFailure(
            f"LP solver failed: {solver.modelStatusToString(solver.getModelStatus())}")
    solution = solver.getSolution()
    return (np.asarray(solution.col_value, dtype=np.float64)[:e],
            np.asarray(solution.row_dual, dtype=np.float64))


def _certified_solution(D: np.ndarray, counts: np.ndarray, plan: np.ndarray, f: np.ndarray,
                        source_marginal: np.ndarray | None = None, *, converged: bool = True,
                        warning: str | None = None) -> ClassWeightSolution:
    """The solution held by a class-tied plan, certified by row potentials f.

    w_c is the plan's mass on class c's rows, renormalised only when the total
    is more than 1e-12 from one. With f centred in each class, the c-transform
    g_j = min_r (D_rj - f_r), taken in row blocks, is dual feasible: dual_gap =
    objective - mean(g) (Peyre & Cuturi 2019, 3.1 and 4.1). Rows are checked
    against ``source_marginal``, by default the class-tied rows w_c / n_c."""
    n, m = D.shape
    row_class = _row_classes(counts)
    objective = float(np.sum(D * plan))
    w = np.bincount(row_class, weights=plan.sum(axis=1), minlength=counts.size)
    try:
        weights = ClassWeights(w / w.sum() if abs(w.sum() - 1.0) > 1e-12 else w)
    except MalformedFile as e:
        raise SolverFailure(f"recovered weights violate simplex invariants: {e}") from e
    f = f - _class_means(f, row_class, counts)[row_class]
    g = np.full(m, np.inf)
    for lo, hi in _row_blocks(n, m):
        np.minimum(g, (D[lo:hi] - f[lo:hi, None]).min(axis=0), out=g)
    if source_marginal is None:
        source_marginal = np.repeat(weights.weights / counts, counts)
    transport = TransportPlan(plan, source_marginal, np.full(m, 1.0 / m), objective,
                              dual_gap=max(0.0, objective - float(g.mean())))
    support_size = int((weights.weights > WEIGHT_CLAMP).sum())
    return ClassWeightSolution(weights, transport, objective, support_size,
                               converged=converged, warning=warning)


# ============================================================
# Brute-force oracle
# ============================================================


def _grid_walk(k: int, steps: int, reverse: bool = False):
    """Integer vectors of length k summing to ``steps``, in serpentine order:
    the walk over the entries after the first runs forward at an even first
    entry and backward at an odd one, so consecutive vectors differ by one
    unit moved between two entries. ``reverse`` yields the walk backwards."""
    if k == 1:
        yield (steps,)
        return
    for head in (range(steps, -1, -1) if reverse else range(steps + 1)):
        for tail in _grid_walk(k - 1, steps - head, (head % 2 == 1) != reverse):
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

    The points are walked in serpentine order (``_grid_walk``), one step of
    weight between two classes at a time, and one basis tree, with its
    potentials, is carried from each solve to the next (``ot._solve``). All
    points share the cost, so the tree stays dual-feasible, and a few dual
    simplex pivots repair it when it is not feasible at once. The tree also
    carries its reduced costs and dual violation: a point that needs no pivot
    reuses them instead of pricing every cell again. Each point is still
    certified by its duality gap and the marginals of its plan, both taken
    over its n + m - 1 basic cells alone.

    The points are ranked by the dense objective ``np.sum(D * plan)`` that
    ``solve_exact_ot`` reports (``ot._dense_plan``), but only the points whose
    basic-cell objective is within 1e-12, relative, of the least one build
    their dense plan, after the walk. Every term is nonnegative, so the
    basic-cell sum, correctly rounded, is within one unit in the last place
    of the exact sum and the dense one within about 20 + log2(nm) units, both
    relative: a point further above cannot be the minimizer. A point that
    makes no pivot is then O(n + m).
    """
    D, counts = _check_inputs(D, class_counts)
    k = counts.size
    if k > 4:
        raise TooManyClasses(f"brute force enumerates at most 4 classes, got {k}")
    if not (0.0 < grid_step <= 1.0):
        raise ValueError(f"grid_step must be in (0, 1], got {grid_step}")
    steps = max(1, round(1.0 / grid_step))

    n, m = D.shape
    nu = np.full(m, 1.0 / m)
    short, least, tree = [], np.inf, None  # the points that may be the minimizer
    for comp in _grid_walk(k, steps):
        mu = np.repeat(np.asarray(comp, dtype=np.float64) / steps / counts, counts)
        bi, bj, vals, objective, _, tree = _solve(D, mu, nu, tree)
        if max(np.abs(np.bincount(bi, vals, n) - mu).max(),
               np.abs(np.bincount(bj, vals, m) - nu).max()) > 1e-7:
            raise SolverFailure(f"grid point {comp}: plan marginals off by more than 1e-7")
        if objective <= least + 1e-12 * least:
            if objective < least:
                least = objective
                short = [p for p in short if p[0] <= least + 1e-12 * least]
            short.append((objective, comp, bi, bj, vals))
    # ties go to the first point in lexicographic order
    best = min((_dense_plan(D, bi, bj, vals)[1], comp) for _, comp, bi, bj, vals in short)
    w = np.asarray(best[1], dtype=np.float64) / steps
    return ClassWeights(w / w.sum()), float(best[0])


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
