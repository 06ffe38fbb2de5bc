"""Entropic approximation of the class-weight transport problem.

The free, class-tied source marginal enters through alternating KL
projections: (a) classic column scaling onto the uniform target marginal,
(b) a per-class geometric-mean row scaling that equalizes row sums within
each class while leaving the class total free (the exact KL projection onto
that constraint set), and (c) a global renormalization to total mass one.
The iteration runs on dual potentials with log-sum-exp at every epsilon: the
plan rows of a class that carries no weight may legitimately fall below the
float range, which only the log domain represents.
Epsilon scaling (Schmitzer 2019; Feydy et al. 2019) starts wide and steps
down, halving epsilon by default, once the column marginal is roughly met.

The loop converges only linearly, the slower the smaller epsilon. After 10
unconverged iterations at the target, a damped Newton method on the dual
(Brauer et al. 2017) finishes in a few steps at every size. Each eliminates
the rows and the class multipliers and solves one dense m x m system, formed
in O(n m^2) and free of the cost scale (``_newton_step``). The plan is
rounded onto the polytope in one pass (Altschuler et al. 2017); the c-transform
of the final potentials certifies the gap (``_c_transform``). This module is the
lower layer, importing only ``data`` and ``errors``: the exact LP (``classlp``)
takes the certificate, input check and class helpers from it, ``ot`` the
c-transform and the loop, which it runs with fixed row and column marginals to
order the cold start of its large transportation simplex solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ClassWeights, TransportPlan, _check_cost, _check_count, _check_labels
from .errors import DimensionMismatch, MalformedFile, SolverFailure

_SCHEDULE_PERIOD = 100  # most iterations spent at one epsilon above the target
_LEVEL_TOL = 1e-2  # column violation that ends an epsilon level early
_NEWTON_AFTER = 10  # loop iterations at the target epsilon before the Newton finish
_NEWTON_STEPS = 50  # most Newton steps in one finish
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
    D = _check_cost(D)
    counts = _check_labels(class_counts, "class_counts")
    if counts.ndim != 1 or counts.size < 1 or counts.min() < 1:
        raise DimensionMismatch("class_counts must be positive integers")
    if counts.sum() != D.shape[0]:
        raise DimensionMismatch(f"class counts sum to {counts.sum()} but cost matrix has "
                                f"{D.shape[0]} rows")
    return D, counts


def _row_classes(counts: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(counts.size), counts)


def _class_means(values: np.ndarray, row_class: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of ``values`` over the rows of each class, in the dtype of ``values``."""
    means = np.bincount(row_class, weights=values, minlength=counts.size) / counts
    return means.astype(values.dtype, copy=False)


def _row_blocks(n: int, m: int, rows: np.ndarray | None = None):
    """Row ranges of at most _BLOCK_CELLS cells over all n rows, or over only
    the rows where the mask ``rows`` holds, run by run of consecutive ones."""
    step = max(1, _BLOCK_CELLS // m)
    runs = ([(0, n)] if rows is None else
            np.flatnonzero(np.diff(rows, prepend=False, append=False)).reshape(-1, 2).tolist())
    for start, stop in runs:
        for lo in range(start, stop, step):
            yield lo, min(stop, lo + step)


def _c_transform(D: np.ndarray, f: np.ndarray) -> np.ndarray:
    """g_j = min_r (D_rj - f_r), taken in row blocks: the largest column
    potentials that make row potentials f dual feasible (Peyre & Cuturi 2019,
    3.1). Every solver certifies its duality gap with it."""
    g = np.full(D.shape[1], np.inf)
    for lo, hi in _row_blocks(*D.shape):
        np.minimum(g, (D[lo:hi] - f[lo:hi, None]).min(axis=0), out=g)
    return g


def _certified_solution(D: np.ndarray, counts: np.ndarray, plan: np.ndarray, f: np.ndarray,
                        source_marginal: np.ndarray | None = None, *, converged: bool = True,
                        warning: str | None = None) -> ClassWeightSolution:
    """The solution held by a class-tied plan, certified by row potentials f.

    w_c is the plan's mass on class c's rows, renormalised only when the total
    is more than 1e-12 from one. With f centred in each class, its c-transform
    g (``_c_transform``) is dual feasible: dual_gap = objective - mean(g)
    (Peyre & Cuturi 2019, 3.1 and 4.1). Rows are checked against
    ``source_marginal``, by default the class-tied rows w_c / n_c."""
    m = D.shape[1]
    row_class = _row_classes(counts)
    objective = float(np.sum(D * plan))
    w = np.bincount(row_class, weights=plan.sum(axis=1), minlength=counts.size)
    try:
        weights = ClassWeights(w / w.sum() if abs(w.sum() - 1.0) > 1e-12 else w)
    except MalformedFile as e:
        raise SolverFailure(f"recovered weights violate simplex invariants: {e}") from e
    g = _c_transform(D, f - _class_means(f, row_class, counts)[row_class])
    if source_marginal is None:
        source_marginal = np.repeat(weights.weights / counts, counts)
    transport = TransportPlan(plan, source_marginal, np.full(m, 1.0 / m), objective,
                              dual_gap=max(0.0, objective - float(g.mean())))
    support_size = weights.support().size
    return ClassWeightSolution(weights, transport, objective, support_size,
                               converged=converged, warning=warning)


@dataclass(frozen=True)
class SinkhornConfig:
    """Regularization and stopping controls.

    ``epsilon`` defaults (None) to 0.01 * mean(D) at solve time. Iteration
    starts at epsilon max(target, 0.1 * max D) and halves it, until the
    target is hit, once the column marginal violation at the current level
    is at most 1e-2, and at the latest after 100 iterations there.
    """

    epsilon: float | None = None
    max_iters: int = 10000
    tol: float = 1e-7

    def __post_init__(self):
        if self.epsilon is not None and not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        _check_count("max_iters", self.max_iters, 1)
        if not self.tol > 0:
            raise ValueError("tol must be positive")


def _logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """log(sum(exp(a))) along ``axis`` (all entries when None) for finite
    ``a``, shifted by the maximum so no term overflows.

    Same values as ``scipy.special.logsumexp``, whose per-call overhead
    dominates on the small arrays of the log-domain loop.
    """
    top = a.max(axis=axis, keepdims=True)
    return np.log(np.exp(a - top).sum(axis=axis)) + top.squeeze(axis)


def _round_to_polytope(P: np.ndarray, counts: np.ndarray, row_class: np.ndarray
                       ) -> np.ndarray:
    """One-pass rounding onto column sums 1/m and row targets a (Altschuler, Weed &
    Rigollet 2017, Alg. 2), a_r the class mean of P's row sums over P's total;
    ||P' - P||_1 <= 2 (||r(P) - a||_1 + ||c(P) - 1/m||_1) (their Lemma 7)."""
    m = P.shape[1]
    r = P.sum(axis=1)
    a = _class_means(r, row_class, counts)[row_class] / r.sum()
    P = P * np.minimum(1.0, np.divide(a, r, out=np.ones_like(r), where=r > 0.0))[:, None]
    c = P.sum(axis=0)  # an all-zero row or column keeps a factor of one
    P *= np.minimum(1.0, np.divide(1.0 / m, c, out=np.ones_like(c), where=c > 0.0))
    err_r = np.maximum(a - P.sum(axis=1), 0.0)
    err_c = np.maximum(1.0 / m - P.sum(axis=0), 0.0)
    return P + np.outer(err_r, err_c / err_c.sum()) if err_c.any() else P


def _newton_step(P: np.ndarray, r: np.ndarray, c: np.ndarray, counts: np.ndarray,
                 row_class: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton direction (x_f, x_g) at plan P in units of eps: the solution of [[R, P, A^T],
    [P^T, C, 0], [A, 0, 0]] (x_f, x_g, lam) = (-r, 1/m - c, 0), (R, C) = diag(r, c) + delta,
    A the class indicators. Eliminating x_f, then lam (A R^-1 A^T is diagonal), leaves
    one m x m system, formed from class sums in O(n m^2)."""
    m = P.shape[1]
    delta = 1e-12 * max(r.max(), c.max())  # keeps a class of almost no mass regular
    R, C = r + delta, c + delta
    W = P / R[:, None]
    starts = np.cumsum(counts) - counts
    Q, s, q = (np.add.reduceat(a, starts) for a in (W, 1.0 / R, r / R))  # class sums
    Qs = Q / s[:, None]
    M = Qs.T @ Q - P.T @ W
    M[np.diag_indices(m)] += C
    x_g = np.linalg.solve(M, 1.0 / m - c + W.T @ r - Qs.T @ q)
    lam = -(q + Q @ x_g) / s
    return -(r + P @ x_g + lam[row_class]) / R, x_g


def _newton_finish(D: np.ndarray, f: np.ndarray, g: np.ndarray, eps: float,
                   counts: np.ndarray, row_class: np.ndarray, tol: float,
                   steps: int) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Damped Newton ascent on max sum(g)/m - eps * sum_rj exp((f_r + g_j - D_rj)/eps)
    s.t. sum_{r in c} f_r = 0 (the loop keeps f's class means equal), stepping by
    eps times ``_newton_step``, free of the cost scale. The Armijo search takes the
    dual's change by expm1 and rejects non-finite trials. Returns f, g, the residual
    (column L1 violation plus row spread around the class means) and the steps."""
    n, m = D.shape
    f, g = f - f.mean(), g + f.mean()
    for step in range(steps + 1):
        P = np.exp((f[:, None] + g[None, :] - D) / eps)
        r, c = P.sum(axis=1), P.sum(axis=0)
        res = float(np.abs(c - 1.0 / m).sum()
                    + np.abs(r - _class_means(r, row_class, counts)[row_class]).sum())
        if res <= tol or step == steps:
            break
        grad = np.concatenate([r, c - 1.0 / m])  # of the negated dual
        d = eps * np.concatenate(_newton_step(P, r, c, counts, row_class))
        df, dg, slope = d[:n], d[n:], float(grad @ d)
        t = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            while not (-t * dg.sum() / m + eps * np.sum(
                    P * np.expm1(t * (df[:, None] + dg[None, :]) / eps)) <= 1e-4 * t * slope):
                t *= 0.5
                if t < 1e-10:
                    return f, g, res, step
        f, g = f + t * df, g + t * dg
    return f, g, res, step


def _sinkhorn_potentials(D: np.ndarray, counts: np.ndarray | None, row_class: np.ndarray | None,
                         cfg: SinkhornConfig, newton: bool = False,
                         marginals: tuple[np.ndarray, np.ndarray] | None = None
                         ) -> tuple[np.ndarray, np.ndarray, float, bool, float, int]:
    """Run the log-domain loop; return the potentials (f, g), the epsilon they
    belong to, whether the target epsilon converged, the best residual met there
    (inf if the target was never reached) and the loop iterations plus Newton steps.

    The plan is exp((f_r + g_j - D_rj) / eps). By default its rows are
    class-tied (``counts``, ``row_class``) and its columns uniform.
    ``marginals``, the logs (log mu, log nu) of two positive marginals, fixes
    the rows at mu instead, f = eps (log mu - lse), and the columns at nu;
    ``counts`` and ``row_class`` are then unused. When the cap is hit
    unconverged at the target epsilon, the best iterate there is returned.
    ``newton``, for class-tied rows only, enables the finish (each step
    counts against ``max_iters``); the exact class LP seeds its candidate
    cells from the plain loop, and the transportation simplex its cold start.
    The loop runs in D's dtype (the class LP's seed passes a float32 D): every
    scalar that meets an array is a Python float, since a numpy float64 scalar
    would promote the loop to float64.
    """
    n, m = D.shape
    eps_target = cfg.epsilon if cfg.epsilon is not None else 0.01 * float(D.mean())
    if eps_target <= 0:
        eps_target = 1e-3  # all-zero cost matrix: any epsilon gives the same plan
    eps = max(eps_target, 0.1 * float(D.max()))

    if marginals is None:
        log_counts = np.log(counts.astype(D.dtype))
        target_col = 1.0 / m
        log_nu = -float(np.log(m))
    else:
        log_mu, log_nu = marginals
        target_col = np.exp(log_nu)

    best_viol = np.inf
    best_state: tuple | None = None
    converged = handoff = False

    f, g = np.zeros(n, D.dtype), np.zeros(m, D.dtype)
    viol, level_start = np.inf, 0
    for it in range(cfg.max_iters):
        if eps > eps_target and (viol <= _LEVEL_TOL or it - level_start == _SCHEDULE_PERIOD):
            eps = max(eps_target, eps * 0.5)
            level_start = it
        lse_cols = _logsumexp((f[:, None] - D) / eps, axis=0)
        col = np.exp(g / eps + lse_cols)
        viol = float(np.abs(col - target_col).sum())
        if eps == eps_target:
            if viol < best_viol:
                best_viol = viol
                best_state = (f.copy(), g.copy())
            if viol <= cfg.tol:
                converged = True
                break
            if newton and it - level_start == _NEWTON_AFTER:
                handoff = True
                break
        g = eps * (log_nu - lse_cols)
        if marginals is not None:
            f = eps * (log_mu - _logsumexp((g[None, :] - D) / eps, axis=1))
        else:
            logr = f / eps + _logsumexp((g[None, :] - D) / eps, axis=1)
            logt = _class_means(logr, row_class, counts)
            f = f + eps * (logt[row_class] - logr)
            # rows of class c now sum to exp(logt[c]); rescale to total mass 1
            f -= eps * _logsumexp(log_counts + logt)
    spent = it if converged or handoff else cfg.max_iters
    if handoff:
        fn, gn, res, steps = _newton_finish(D, f, g, eps, counts, row_class, cfg.tol,
                                            min(cfg.max_iters - it, _NEWTON_STEPS))
        spent += steps
        if res < best_viol:
            best_viol, best_state = res, (fn, gn)
        converged = res <= cfg.tol
    if best_state is not None and (handoff or not converged):
        f, g = best_state
    return f, g, eps, converged, best_viol, spent


def sinkhorn_class_weights(
    D: np.ndarray,
    class_counts: np.ndarray,
    cfg: SinkhornConfig | None = None,
) -> ClassWeightSolution:
    """Approximately optimal class weights via generalized Sinkhorn iteration.

    The reported objective is Tr(D^T P) of the rounded plan, which satisfies
    the column marginal exactly and the class row ties to within roundoff.
    If the iteration cap is hit with the marginal violation still above ten
    times the tolerance, or before the target epsilon is reached, the best
    iterate is returned with a warning flag.
    The class LP optimum lies in [objective - plan.dual_gap, objective]: the
    lower end is mean(g) for the class-centred f and its c-transform g.
    """
    D, counts = _check_inputs(D, class_counts)
    cfg = cfg or SinkhornConfig()
    row_class = _row_classes(counts)
    f, g, eps, converged, best_viol, spent = _sinkhorn_potentials(D, counts, row_class, cfg, True)
    P = _round_to_polytope(np.exp((f[:, None] + g[None, :] - D) / eps), counts, row_class)
    row_sums = P.sum(axis=1)
    starts = np.cumsum(counts) - counts
    spread = float((np.maximum.reduceat(row_sums, starts)
                    - np.minimum.reduceat(row_sums, starts)).max())
    warning = None
    if best_viol == np.inf:
        warning = (f"target epsilon not reached after {spent} iterations "
                   f"(stopped at epsilon {eps:.3e})")
    elif not converged and best_viol > 10.0 * cfg.tol:
        warning = (f"marginal violation {best_viol:.3e} still above 10*tol after "
                   f"{spent} iterations")
    if spread > 1e-6:
        warning = (warning + "; " if warning else "") + f"class row-sum spread {spread:.3e}"
    return _certified_solution(D, counts, P, f, row_sums, converged=converged, warning=warning)
