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
down as soon as the column marginal is nearly met at the current level.

Per-iteration cost is O(n*m); the iteration count, not the per-step cost,
is what the regularization strength buys down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classlp import ClassWeightSolution, _check_inputs, _row_classes
from .data import ClassWeights, TransportPlan, WEIGHT_CLAMP
from .errors import NumericalUnderflow

_SCHEDULE_PERIOD = 100  # most iterations spent at one epsilon above the target
_LEVEL_TOL = 1e-4  # column violation that ends an epsilon level early


@dataclass(frozen=True)
class SinkhornConfig:
    """Regularization and stopping controls.

    ``epsilon`` defaults (None) to 0.01 * mean(D) at solve time. With an
    ``epsilon_schedule`` below 1, iteration starts at a larger epsilon and
    multiplies it by that factor, until the target is hit, once the column
    marginal violation at the current level is at most 1e-4, and at the
    latest after 100 iterations there. None or 1.0 start at the target.
    """

    epsilon: float | None = None
    max_iters: int = 10000
    tol: float = 1e-7
    epsilon_schedule: float | None = 0.9

    def __post_init__(self):
        if self.epsilon is not None and not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.epsilon_schedule is not None and not (0.0 < self.epsilon_schedule <= 1.0):
            raise ValueError("epsilon_schedule must lie in (0, 1]")


def _logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """log(sum(exp(a))) along ``axis`` (all entries when None) for finite
    ``a``, shifted by the maximum so no term overflows.

    Same values as ``scipy.special.logsumexp``, whose per-call overhead
    dominates on the small arrays of the log-domain loop.
    """
    top = a.max(axis=axis, keepdims=True)
    return np.log(np.exp(a - top).sum(axis=axis)) + top.squeeze(axis)


def _class_means(values: np.ndarray, row_class: np.ndarray, counts: np.ndarray) -> np.ndarray:
    return np.bincount(row_class, weights=values, minlength=counts.size) / counts


def _round_to_polytope(P: np.ndarray, counts: np.ndarray, row_class: np.ndarray
                       ) -> np.ndarray:
    """Project a near-feasible positive plan onto exact column sums and
    exactly equal within-class row sums.

    The within-class correction redistributes each row's deficit along the
    class's own column profile, which leaves column sums untouched; so a
    pass that ends without clamping has both constraint families exact.
    """
    n, m = P.shape
    target_col = 1.0 / m
    starts = np.concatenate([[0], np.cumsum(counts)])
    P = P.copy()
    for _ in range(60):
        col = P.sum(axis=0)
        if (col <= 0.0).any():
            raise NumericalUnderflow("a rounded column lost all mass")
        P *= target_col / col
        r = P.sum(axis=1)
        t = _class_means(r, row_class, counts)
        for c in range(counts.size):
            lo, hi = starts[c], starts[c + 1]
            q = P[lo:hi].sum(axis=0)
            s = q.sum()
            if s <= 0.0:
                continue
            P[lo:hi] += (t[c] - r[lo:hi])[:, None] * (q / s)[None, :]
        if P.min() >= 0.0:
            return P
        P = np.maximum(P, 0.0)
    col = P.sum(axis=0)
    if (col <= 0.0).any():
        raise NumericalUnderflow("a rounded column lost all mass")
    return P * (target_col / col)


def _sinkhorn_potentials(D: np.ndarray, counts: np.ndarray, row_class: np.ndarray,
                         cfg: SinkhornConfig) -> tuple[np.ndarray, np.ndarray, float, bool, float]:
    """Run the log-domain loop; return the potentials (f, g), the epsilon they
    belong to, whether the target epsilon converged, and the best column
    violation met there (inf if the target was never reached).

    The plan is exp((f_r + g_j - D_rj) / eps). When the cap is hit
    unconverged at the target epsilon, the best iterate there is returned.
    The exact class LP also seeds its candidate cells from these potentials.
    """
    n, m = D.shape
    d_max = float(D.max())
    eps_target = cfg.epsilon if cfg.epsilon is not None else 0.01 * float(D.mean())
    if eps_target <= 0:
        eps_target = 1e-3  # all-zero cost matrix: any epsilon gives the same plan
    if cfg.epsilon_schedule is not None and cfg.epsilon_schedule < 1.0:
        eps = max(eps_target, 0.1 * d_max)
    else:
        eps = eps_target

    log_counts = np.log(counts.astype(np.float64))
    target_col = 1.0 / m

    best_viol = np.inf
    best_state: tuple | None = None
    converged = False

    f = np.zeros(n)
    g = np.zeros(m)
    viol = np.inf
    level_start = 0
    for it in range(cfg.max_iters):
        if eps > eps_target and (viol <= _LEVEL_TOL or it - level_start == _SCHEDULE_PERIOD):
            eps = max(eps_target, eps * cfg.epsilon_schedule)
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
        g = eps * (-np.log(m) - lse_cols)
        logr = f / eps + _logsumexp((g[None, :] - D) / eps, axis=1)
        logt = _class_means(logr, row_class, counts)
        f = f + eps * (logt[row_class] - logr)
        # rows of class c now sum to exp(logt[c]); rescale to total mass 1
        f -= eps * _logsumexp(log_counts + logt)
    if best_state is not None and not converged:
        f, g = best_state
    return f, g, eps, converged, best_viol


def sinkhorn_class_weights(
    D: np.ndarray,
    class_counts: np.ndarray,
    cfg: SinkhornConfig | None = None,
) -> ClassWeightSolution:
    """Approximately optimal class weights via generalized Sinkhorn iteration.

    The reported objective is Tr(D^T P) of the rounded plan, which satisfies
    the column marginal exactly and the class row ties to within roundoff.
    If the iteration cap is hit with the marginal violation still above ten
    times the tolerance, the best iterate is returned with a warning flag.
    """
    D, counts = _check_inputs(D, class_counts)
    cfg = cfg or SinkhornConfig()
    m = D.shape[1]
    row_class = _row_classes(counts)
    target_col = 1.0 / m
    f, g, eps, converged, best_viol = _sinkhorn_potentials(D, counts, row_class, cfg)
    P = np.exp((f[:, None] + g[None, :] - D) / eps)

    P = _round_to_polytope(P, counts, row_class)
    objective = float(np.sum(D * P))
    row_sums = P.sum(axis=1)
    w = np.bincount(row_class, weights=row_sums, minlength=counts.size)
    weights = ClassWeights(w / w.sum())
    spread = float(max(
        row_sums[s:e].max() - row_sums[s:e].min()
        for s, e in zip(np.concatenate([[0], np.cumsum(counts)])[:-1], np.cumsum(counts))
    ))
    warning = None
    if not converged and best_viol > 10.0 * cfg.tol:
        warning = (f"marginal violation {best_viol:.3e} still above 10*tol after "
                   f"{cfg.max_iters} iterations")
    if spread > 1e-6:
        warning = (warning + "; " if warning else "") + f"class row-sum spread {spread:.3e}"
    transport = TransportPlan(
        P,
        source_marginal=row_sums,
        target_marginal=np.full(m, target_col),
        objective=objective,
    )
    support_size = int((weights.weights > WEIGHT_CLAMP).sum())
    return ClassWeightSolution(weights, transport, objective, support_size,
                               converged=converged, warning=warning)
