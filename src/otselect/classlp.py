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
The selection is sparse, so whole classes are screened too: a class on which
the seed plan puts at most 1e-3 of its mass gets no cell, and HiGHS sees only
the rows of the other classes. Once no cell enters, each class left out is
priced whole by its Dantzig-Wolfe reduced cost h_c(y) (Luebbecke &
Desrosiers 2005), and the classes with h_c < 0 enter, two at a time. The
final row duals, lifted to the rows left out, are certified over every cell
by the entropic solver's c-transform bound. ``sinkhorn``, the lower layer,
holds it (``_certified_solution``), the input check and the class helpers.

The grid oracle (``brute_force_class_weights``) takes one thing from ``ot``,
its simplex (``_solve``), and ranks its points by the objective that each
solve certifies, the one ``solve_exact_ot`` reports. Each solve's dual
certificate is a linear lower bound on the transport cost over the whole
grid, so a point that the largest of these bounds puts above the best
objective so far is skipped without a solve; on gate 01's 34 k = 3
instances that leaves 3,247 of their 45,084 points to solve.

HiGHS is driven through its own bindings, the extension
``scipy.optimize._highspy._core``, with its dual simplex under Devex pricing
(Harris 1973) and presolve off (``_run_highs``, the one place that touches
it). Devex, rather than the strategy HiGHS picks for itself, takes about a
quarter fewer iterations on the LPs of gates 01 and 03 and as many at
``lp-scale``'s sizes. scipy is needed only for HiGHS. The extension is
loaded from its file on the first LP, neither with the package nor through
``scipy/optimize/__init__.py`` (``_highs_core``).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import operator
import os
import sys

import numpy as np

from .data import ClassWeights, _check_labels
from .errors import DimensionMismatch, SolverFailure, TooManyClasses
from .ot import _solve
from .sinkhorn import (ClassWeightSolution, SinkhornConfig, _certified_solution, _check_inputs,
                       _class_means, _logsumexp, _row_blocks, _row_classes, _sinkhorn_potentials,
                       sinkhorn_class_weights)

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
_CLASS_MASS_MIN = 1e-3  # share of the seed plan's mass a class needs to get cells
_CLASSES_PER_ROUND = 2  # most classes priced back into the LP per round
_HIGHS_CORE = "scipy.optimize._highspy._core"


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
    marks as likely, plus a staircase spanning tree per class, on only the
    classes that hold more than 1e-3 of that run's mass (the heaviest class
    always): the LP has no row of the others. Every cell of the classes in
    the LP is then priced with the LP duals, the cells with a negative
    reduced cost join the set, and the LP is solved again until none is
    left. Then every class left out is priced whole, and those that would
    lower the cost enter, at most two per round, until none would. So the
    result is exact at every size. A c-transform duality gap over all cells
    above 1e-9 of the largest cost raises ``SolverFailure``. Instances with
    more than ``sinkhorn_threshold`` cost entries are routed to the entropic
    solver instead (the default, None, never routes).
    """
    D, counts = _check_inputs(D, class_counts)
    n, m = D.shape

    if sinkhorn_threshold is not None and n * m > sinkhorn_threshold:
        return sinkhorn_class_weights(D, counts)

    if n * m > _RESTRICTED_MIN_CELLS:
        cells = _candidate_cells(D, counts)
    else:
        cells = np.ones((n, m), dtype=bool)
    return _solve_on_cells(D, counts, cells)[0]


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
    2019), on the rows of the classes that can carry weight. The pricing loop
    makes up for a loose seed, so it is cut early.

    A class can carry weight when the seed plan exp((f_r + g_j - D_rj) / eps)
    puts more than _CLASS_MASS_MIN of its mass on the class's rows; the
    heaviest class always can. The other classes get no cell, and the LP
    prices them back in if they are needed (``_solve_on_cells``).

    The seed only picks cells, so it runs in float32, on D / max D: unlike D
    itself, that matrix fits float32 at any cost scale. The class masses are
    taken there too. Its g and epsilon are scaled back to D's units, and the
    window is tested in float64 on D."""
    scale = float(D.max()) or 1.0
    Dn = (D / scale).astype(np.float32)
    row_class = _row_classes(counts)
    cfg = SinkhornConfig(epsilon=_SEED_EPS * float(Dn.mean()) or None,  # None: all-zero D
                         max_iters=_SEED_ITERS, tol=_SEED_TOL)
    f, g, eps, _, _, _ = _sinkhorn_potentials(Dn, counts, row_class, cfg)
    log_mass = f / eps + _logsumexp((g - Dn) / eps, axis=1)  # of each row, float32
    mass = np.bincount(row_class, weights=np.exp(log_mass - log_mass.max()),
                       minlength=counts.size)
    keep = mass > _CLASS_MASS_MIN * mass.sum()
    keep[mass.argmax()] = True
    live = keep[row_class]

    g, eps = scale * g.astype(np.float64), scale * eps
    cells = _staircases(counts, D.shape[1]) & live[:, None]
    for lo, hi in _row_blocks(*D.shape, live):
        slack = D[lo:hi] - g  # f_r is constant along a row
        cells[lo:hi] |= slack <= slack.min(axis=1, keepdims=True) + _SLACK_WINDOW * eps
    return cells


def _solve_on_cells(D: np.ndarray, counts: np.ndarray, cells: np.ndarray
                    ) -> tuple[ClassWeightSolution, int]:
    """Solve the LP restricted to the masked cells, price every cell with its
    duals, add the cells of negative reduced cost and repeat until none is
    added; return the solution and the number of LP solves.

    Only the classes with a cell in the mask are in the LP, with their rows
    alone. Once no cell enters, each class c left out is priced whole by
    h_c(y) = mean over its rows r of phi_r = min_j (D_rj - y_j): the reduced
    cost of its best assignment of rows to columns (Dantzig-Wolfe pricing,
    Luebbecke & Desrosiers 2005). Its rows take the duals z_r = phi_r - h_c,
    which sum to zero over the class and leave every cell a reduced cost of
    at least h_c. So when no h_c is negative, the duals are feasible on every
    cell of every row, and the certificate covers them all. Otherwise at most
    _CLASSES_PER_ROUND of the classes with h_c < 0 enter, the most negative
    first, each with its staircase and its cells of negative reduced cost
    under these duals (every row's least cell under y among them), and the
    loop goes on.

    Each round adds at least one cell, so the loop ends, at the latest with
    every cell in the LP.
    """
    n, m = D.shape
    # HiGHS's tolerances are absolute, so it solves on D / max D and the
    # duals are scaled back: the result is then exact at any cost scale.
    scale = float(D.max()) or 1.0
    row_class = _row_classes(counts)
    cells = cells.copy()
    rounds = 0
    while True:
        rounds += 1
        rows, cols = np.nonzero(cells)
        kept = np.bincount(row_class[rows], minlength=counts.size) > 0
        live = kept[row_class]
        x, duals = _run_highs(D[rows, cols] / scale, rows, cols, counts, m, kept)
        duals = scale * duals
        y, z = duals[:m], np.zeros(n)
        z[live] = duals[m:]

        # Price every cell of the classes in the LP: reduced cost D_rj - y_j - z_r.
        added = False
        for lo, hi in _row_blocks(n, m, live):
            enter = (D[lo:hi] - (y + z[lo:hi, None]) < 0.0) & ~cells[lo:hi]
            if enter.any():
                cells[lo:hi] |= enter
                added = True
        if added:
            continue
        if kept.all():
            break

        # Price every class left out, whole, and lift its rows' duals.
        phi = np.zeros(n)
        for lo, hi in _row_blocks(n, m, ~live):
            phi[lo:hi] = (D[lo:hi] - y).min(axis=1)
        h = _class_means(phi, row_class, counts)
        z[~live] = (phi - h[row_class])[~live]
        enter = np.flatnonzero(~kept & (h < 0.0))
        if enter.size == 0:
            break
        starts = np.concatenate([[0], np.cumsum(counts)])
        for c in enter[np.argsort(h[enter], kind="stable")[:_CLASSES_PER_ROUND]]:
            lo, hi = starts[c], starts[c + 1]
            cells[lo:hi] |= (_staircases(counts[c:c + 1], m)
                             | (D[lo:hi] - (y + z[lo:hi, None]) < 0.0))

    plan = np.zeros((n, m))
    plan[rows, cols] = np.maximum(x, 0.0)
    sol = _certified_solution(D, counts, plan, z)
    if sol.plan.dual_gap > 1e-9 * scale:
        raise SolverFailure(f"class LP duality gap {sol.plan.dual_gap:.3e} above 1e-9 * max D")
    return sol, rounds


def _highs_core():
    """HiGHS's bindings, the extension scipy ships as _HIGHS_CORE.

    The extension is loaded from its file under its full name and registered
    in ``sys.modules`` first, so ``scipy/optimize/__init__.py``, which loads
    some 300 scipy modules, never runs for it; a later ``import scipy.optimize``
    finds and reuses the same module. If the file load fails in any way, the
    package import is the fallback."""
    core = sys.modules.get(_HIGHS_CORE)
    if core is not None:
        return core
    try:
        root = os.path.dirname(importlib.util.find_spec("scipy").origin)
        stem = os.path.join(root, "optimize", "_highspy", "_core")
        path = next(stem + s for s in importlib.machinery.EXTENSION_SUFFIXES
                    if os.path.isfile(stem + s))
        spec = importlib.util.spec_from_file_location(_HIGHS_CORE, path)
        core = importlib.util.module_from_spec(spec)
        sys.modules[_HIGHS_CORE] = core
        spec.loader.exec_module(core)
        return core
    except Exception:  # whatever failed, the package import below tries again and reports
        sys.modules.pop(_HIGHS_CORE, None)
    try:
        from scipy.optimize._highspy import _core
    except ImportError as e:
        raise ImportError("otselect needs scipy>=1.17, which ships HiGHS's own bindings "
                          "as scipy.optimize._highspy._core") from e
    return _core


def _run_highs(cost: np.ndarray, rows: np.ndarray, cols: np.ndarray, counts: np.ndarray,
               m: int, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the class LP on the cells (rows, cols) with HiGHS's dual simplex;
    return the cells' values and the row duals (y for the m column sums, then
    z for the row ties of the classes in ``kept``, in row order), in the units
    of ``cost``.

    Only the classes in ``kept`` are in the model, and every cell lies on one
    of their rows. Rows: each target column's mass equals 1/m, and each source
    row's mass minus its class variable equals 0. Columns, in this order: one
    per cell, with a one in its target column's row and in its source row's
    row, then one free variable per class, with -1 on its class's rows, which
    are consecutive. The matrix is filled column-wise in closed form and
    passed as arrays. The dual simplex prices by Devex weights (Harris 1973):
    on the LPs of gates 01 and 03 it takes 15,459 iterations where HiGHS's
    own choice takes 20,386, at ``lp-scale``'s sizes as many, and on the
    ``pipeline`` workload's LPs about 5% more, in about the same time.
    Presolve is off: on these LPs it changes neither the iteration count
    nor the plan, and on gate 03's it adds about a fifth to each solve.
    """
    highs = _highs_core()
    if not kept.all():  # number the rows of the classes in the model from 0
        rows, counts = (np.cumsum(kept[_row_classes(counts)]) - 1)[rows], counts[kept]
    e, n, k = rows.size, int(counts.sum()), counts.size
    start = np.concatenate([np.arange(0, 2 * e + 1, 2), 2 * e + np.cumsum(counts[:-1])])
    index = np.concatenate([np.stack([cols, m + rows], axis=1).ravel(), m + np.arange(n)])
    bounds = np.concatenate([np.full(m, 1.0 / m), np.zeros(n)])

    options = highs.HighsOptions()
    options.presolve = "off"
    options.simplex_strategy = 1  # dual simplex
    options.simplex_dual_edge_weight_strategy = 1  # Devex pricing
    options.primal_feasibility_tolerance = options.dual_feasibility_tolerance = 1e-9
    options.output_flag = options.log_to_console = False
    solver = highs._Highs()
    solver.passOptions(options)
    if (solver.passModel(e + k, m + n, 2 * e + n, int(highs.MatrixFormat.kColwise),
                         int(highs.ObjSense.kMinimize), 0.0,
                         np.concatenate([cost, np.zeros(k)]),
                         np.concatenate([np.zeros(e), np.full(k, -highs.kHighsInf)]),
                         np.full(e + k, highs.kHighsInf), bounds, bounds,
                         start.astype(np.int32), index.astype(np.int32),
                         np.concatenate([np.ones(2 * e), -np.ones(n)]),
                         np.zeros(e + k, dtype=np.int32)) == highs.HighsStatus.kError
            or solver.run() == highs.HighsStatus.kError
            or solver.getModelStatus() != highs.HighsModelStatus.kOptimal):
        raise SolverFailure(
            f"LP solver failed: {solver.modelStatusToString(solver.getModelStatus())}")
    solution = solver.getSolution()
    return (np.asarray(solution.col_value, dtype=np.float64)[:e],
            np.asarray(solution.row_dual, dtype=np.float64))


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
    """Grid search over the weight simplex with an exact OT solve per point
    that a lower bound does not rule out.

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
    carries its reduced costs and c-transform: a point that needs no pivot
    reuses them instead of pricing every cell again. Each solved point is
    certified by its duality gap and the marginals of its plan, and ranked by
    its objective, the correctly rounded sum that ``solve_exact_ot`` reports
    too: all three are taken over its n + m - 1 basic cells alone, so a point
    that makes no pivot is O(n + m).

    Each solve's certificate, the row potentials u with their c-transform g,
    is dual feasible at every point of the grid, so u·mu + g·nu bounds the
    transport cost from below at every mu (weak duality; Peyre & Cuturi 2019,
    section 3.1). The grid's mu is linear in its integer composition, so each
    solve leaves one linear cut on it, and the largest of them is a
    cutting-plane lower envelope (Kelley 1960). A point whose envelope lies
    more than 1e-9 of the largest cost, the certificate's own bound, above
    the best objective so far is skipped unsolved: its objective is strictly
    above the best, so it can be neither the minimizer nor a tie. The bound
    is relative, so D·2^k scales every skip decision exactly. The newest cut
    is tried first, since the walk moves one step at a time.
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
    starts, tol = np.cumsum(counts) - counts, 1e-9 * float(D.max())
    cuts, made = np.empty((16, k + 1)), 0  # per solve: the slope of each class, then the intercept
    slopes, intercept = [], 0.0  # the newest cut
    best, tree = (np.inf, ()), None
    for comp in _grid_walk(k, steps):
        if made and (sum(map(operator.mul, slopes, comp)) + intercept > best[0] + tol
                     or (cuts[:made, :k] @ comp + cuts[:made, k]).max() > best[0] + tol):
            continue
        mu = np.repeat(np.asarray(comp, dtype=np.float64) / steps / counts, counts)
        bi, bj, vals, objective, _, tree = _solve(D, mu, nu, tree)
        if max(np.abs(np.bincount(bi, vals, n) - mu).max(),
               np.abs(np.bincount(bj, vals, m) - nu).max()) > 1e-7:
            raise SolverFailure(f"grid point {comp}: plan marginals off by more than 1e-7")
        best = min(best, (objective, comp))  # ties go to the first point in lexicographic order
        slopes = (np.add.reduceat(tree.pot[:n], starts) / (counts * steps)).tolist()
        intercept = float(tree.g @ nu)
        if made == len(cuts):
            cuts = np.concatenate((cuts, np.empty_like(cuts)))
        cuts[made], made = slopes + [intercept], made + 1
    w = np.asarray(best[1], dtype=np.float64) / steps
    return ClassWeights(w / w.sum()), float(best[0])


def weights_to_sample_probabilities(w: ClassWeights, labels: np.ndarray) -> np.ndarray:
    """Per-sample probabilities: a sample of class i gets w_i / n_i."""
    labels = _check_labels(labels)
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
