"""Exact discrete optimal transport with fixed marginals.

The solver is a primal simplex specialized to transportation structure:
northwest-corner initialization, spanning-tree bases, cycle pivoting.
Degeneracy is removed up front by the standard marginal perturbation (a
total of 1e-12 spread over the rows in proportion to the row index, and
1e-12 on the last column), and the perturbation is dropped again when the
final plan is rebuilt from the optimal basis. The most-negative-reduced-cost
entering rule is used while progress is made; Bland's rule takes over after
a run of degenerate pivots so the solve cannot cycle.

The basis tree is kept as parent, parent-cell and depth arrays rooted at
row 0, next to the dual potentials (u_0 = 0). A pivot finds its cycle by
walking both ends of the entering cell up to their common ancestor. The
leaving cell cuts off one subtree; it is re-hung from the entering cell and
only its potentials move, all by the entering cell's reduced cost.

A solve may also start from a given basis (``_transport_simplex``), which
is used when it is primal-feasible for the perturbed marginals. Optimality
of a basis depends on the cost alone, so a sequence of solves over one cost
with nearby marginals, as in the grid oracle of ``classlp``, passes each
solve's final basis to the next and often needs few or no pivots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DiscreteJointDistribution, TransportPlan
from .errors import (
    DimensionMismatch,
    InfeasibleMarginals,
    MalformedFile,
    SolverFailure,
    SupportMismatch,
)

_PERTURB = 1e-12

# A basis: the row and the column index of each of its n + m - 1 cells.
Basis = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class OtProblem:
    """Cost matrix plus source/target marginals of equal total mass."""

    cost: np.ndarray
    mu: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.cost, dtype=np.float64)
        mu = np.ascontiguousarray(self.mu, dtype=np.float64)
        nu = np.ascontiguousarray(self.nu, dtype=np.float64)
        if c.ndim != 2 or mu.shape != (c.shape[0],) or nu.shape != (c.shape[1],):
            raise DimensionMismatch(
                f"cost {c.shape} incompatible with marginals {mu.shape}, {nu.shape}"
            )
        if not np.isfinite(c).all() or c.min() < 0:
            raise MalformedFile("cost matrix must be finite and nonnegative")
        if mu.min() < 0 or nu.min() < 0:
            raise InfeasibleMarginals("marginals must be nonnegative")
        if abs(mu.sum() - 1.0) > 1e-8 or abs(nu.sum() - 1.0) > 1e-8:
            raise InfeasibleMarginals(
                f"marginals must each sum to 1: {mu.sum():.12g} vs {nu.sum():.12g}"
            )
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)


def _northwest_corner(a: np.ndarray, b: np.ndarray) -> tuple[list[int], list[int]]:
    """Staircase spanning tree of n+m-1 cells; values are resolved separately."""
    n, m = a.size, b.size
    a = a.copy()
    b = b.copy()
    bi: list[int] = []
    bj: list[int] = []
    i = j = 0
    for _ in range(n + m - 1):
        bi.append(i)
        bj.append(j)
        q = a[i] if a[i] <= b[j] else b[j]
        a[i] -= q
        b[j] -= q
        if i == n - 1 and j == m - 1:
            break
        if i == n - 1:
            j += 1
        elif j == m - 1:
            i += 1
        elif a[i] < b[j]:
            i += 1
        elif a[i] > b[j]:
            j += 1
        else:
            i += 1
    return bi, bj


def _tree_values(parent: list[int], pcell: list[int], depth: list[int],
                 a: np.ndarray, b: np.ndarray) -> list[float]:
    """Basic-cell values of the basis tree for row marginal a and column
    marginal b: the cell joining a node to its parent carries the net supply
    of the node's subtree (rows supply a, columns demand b).
    """
    n = a.size
    net = a.tolist() + (-b).tolist()
    vals = [0.0] * (len(net) - 1)
    for x in sorted(range(1, len(net)), key=depth.__getitem__, reverse=True):
        net[parent[x]] += net[x]
        vals[pcell[x]] = net[x] if x < n else -net[x]
    return vals


def _basis_tree(bi: list[int], bj: list[int], cost: np.ndarray, n: int, m: int):
    """Adjacency, parent, parent-cell and depth arrays and potentials of the
    basis tree rooted at row 0, or None when the cells do not span every node.

    Nodes 0..n-1 are rows and n..n+m-1 columns; ``pot`` holds u then v, with
    u[0] = 0 and u_i + v_j = C_ij on every basic cell.
    """
    adj: list[dict[int, int]] = [dict() for _ in range(n + m)]
    for e in range(len(bi)):
        adj[bi[e]][n + bj[e]] = e
        adj[n + bj[e]][bi[e]] = e
    parent = [-1] * (n + m)
    pcell = [-1] * (n + m)
    depth = [0] * (n + m)
    pot = [0.0] * (n + m)
    seen = [False] * (n + m)
    seen[0] = True
    reached = 1
    stack = [0]
    while stack:
        x = stack.pop()
        for y, e in adj[x].items():
            if not seen[y]:
                seen[y] = True
                reached += 1
                parent[y], pcell[y], depth[y] = x, e, depth[x] + 1
                pot[y] = cost.item(bi[e], bj[e]) - pot[x]
                stack.append(y)
    if reached < n + m:
        return None
    return adj, parent, pcell, depth, pot


def solve_exact_ot(problem: OtProblem, max_iters: int | None = None) -> TransportPlan:
    """Optimal coupling between the problem's marginals under its cost.

    Returns a plan whose objective is the exact W1 value; optimality is
    certified by the attached LP duality gap (primal minus a dual-feasible
    objective built from the terminal potentials). ``max_iters`` caps the
    number of pivots; a solve that needs more raises ``SolverFailure``.
    """
    return _transport_simplex(problem, max_iters)[0]


def _transport_simplex(problem: OtProblem, max_iters: int | None = None,
                       basis: Basis | None = None) -> tuple[TransportPlan, Basis | None]:
    """``solve_exact_ot`` that may start from ``basis`` and returns the final one.

    ``basis`` is used only when it is a spanning tree of this problem's shape
    that is primal-feasible for the perturbed marginals; otherwise the solve
    starts from the northwest corner. Single-row or single-column problems
    need no simplex and return None as their basis.
    """
    C, mu, nu = problem.cost, problem.mu, problem.nu
    n, m = C.shape
    if max_iters is not None and max_iters < 0:
        raise ValueError("max_iters must be nonnegative")

    if n == 1 or m == 1:
        plan = np.outer(mu, nu) / mu.sum() if mu.sum() > 0 else np.zeros((n, m))
        obj = float(np.sum(C * plan))
        return TransportPlan(plan, mu, nu, obj, dual_gap=0.0), None

    # Perturb to a generically non-degenerate instance; the basis found is
    # optimal for the original marginals too (optimality depends on C only).
    # The rows get a fixed total of _PERTURB, growing with the row index, so
    # perturbed and true basic values differ by at most about _PERTURB at any n,
    # far inside the de-perturbation check below.
    mu_p = mu + (_PERTURB / (n * (n + 1) // 2)) * np.arange(1, n + 1)
    nu_p = nu.copy()
    nu_p[-1] += _PERTURB
    nu_p *= mu_p.sum() / nu_p.sum()

    tree = None
    if (basis is not None and len(basis[0]) == n + m - 1
            and max(basis[0]) < n and max(basis[1]) < m):
        bi, bj = list(basis[0]), list(basis[1])
        tree = _basis_tree(bi, bj, C, n, m)
        if tree is not None:
            vals = _tree_values(*tree[1:4], mu_p, nu_p)
            if min(vals) < 0.0:
                tree = None
    if tree is None:
        bi, bj = _northwest_corner(mu_p, nu_p)
        tree = _basis_tree(bi, bj, C, n, m)
        vals = _tree_values(*tree[1:4], mu_p, nu_p)
    adj, parent, pcell, depth, pot = tree
    uv = np.array(pot)
    u, v = uv[:n], uv[n:]

    scale = 1.0 + float(C.max(initial=0.0))
    rc_tol = 1e-11 * scale
    cap = max_iters if max_iters is not None else 20 * n * m + 50 * (n + m) + 200
    degenerate_run = 0
    bland = False

    rc = np.empty_like(C)
    for pivots in range(cap + 1):  # the last pass only checks optimality
        np.subtract(C, u[:, None], out=rc)
        rc -= v
        if bland:
            flat = np.flatnonzero(rc.ravel() < -rc_tol)
            if flat.size == 0:
                break
            pos = int(flat[0])
        else:
            pos = int(rc.argmin())
        delta = rc.item(pos)
        if delta >= -rc_tol:
            break
        if pivots == cap:
            raise SolverFailure(f"transportation simplex hit the {cap}-pivot cap")
        ei, ej = divmod(pos, m)

        # The cycle closed by the entering cell: walk both of its ends up to
        # their common ancestor, recording the child node of each tree edge.
        a, b = ei, n + ej
        side_a: list[int] = []
        side_b: list[int] = []
        while depth[a] > depth[b]:
            side_a.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            side_b.append(b)
            b = parent[b]
        while a != b:
            side_a.append(a)
            a = parent[a]
            side_b.append(b)
            b = parent[b]

        # Going round the cycle from row ei, cells entered row-first lose
        # theta: on ei's side those whose child is a row, on the other side
        # those whose child is a column. The first minimum in path order
        # leaves.
        theta = np.inf
        leave = -1
        leave_on_a = True
        for x in side_a:
            if x < n and vals[pcell[x]] < theta:
                theta = vals[pcell[x]]
                leave = x
        for x in reversed(side_b):
            if x >= n and vals[pcell[x]] < theta:
                theta = vals[pcell[x]]
                leave = x
                leave_on_a = False
        for x in side_a:
            vals[pcell[x]] += -theta if x < n else theta
        for x in side_b:
            vals[pcell[x]] += -theta if x >= n else theta

        # Swap the cells, then hang the cut-off subtree from the entering
        # cell and shift its potentials by the entering reduced cost.
        el = pcell[leave]
        p = parent[leave]
        del adj[leave][p]
        del adj[p][leave]
        bi[el], bj[el] = ei, ej
        vals[el] = theta
        adj[ei][n + ej] = el
        adj[n + ej][ei] = el
        s, t = (ei, n + ej) if leave_on_a else (n + ej, ei)
        parent[s], pcell[s], depth[s] = t, el, depth[t] + 1
        shift = delta if s < n else -delta  # rows move by +shift, columns by -shift
        pot[s] += delta
        stack = [s]
        while stack:
            x = stack.pop()
            px, dy = parent[x], depth[x] + 1
            for y, e in adj[x].items():
                if y != px:
                    parent[y], pcell[y], depth[y] = x, e, dy
                    pot[y] += shift if y < n else -shift
                    stack.append(y)
        uv = np.array(pot)
        u, v = uv[:n], uv[n:]

        if theta <= 1e-14:
            degenerate_run += 1
            if degenerate_run > 2 * (n + m):
                bland = True
        else:
            degenerate_run = 0
            bland = False

    # Rebuild the plan for the unperturbed marginals from the optimal basis.
    final_vals = np.array(_tree_values(parent, pcell, depth, mu, nu))
    if final_vals.min() < -1e-8:
        raise SolverFailure(f"basis infeasible after de-perturbation: {final_vals.min():.3e}")
    plan = np.zeros((n, m))
    plan[bi, bj] = np.maximum(final_vals, 0.0)
    objective = float(np.sum(C * plan))

    # Rigorous certificate: shift u until (u, v) is dual feasible, then gap.
    violation = max(0.0, float((u[:, None] + v[None, :] - C).max()))
    dual_obj = float(u @ mu + v @ nu) - violation * float(mu.sum())
    gap = max(objective - dual_obj, 0.0)
    return TransportPlan(plan, mu, nu, objective, dual_gap=gap), (tuple(bi), tuple(bj))


def wasserstein_distance(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    """Convenience wrapper: exact W1 objective only."""
    return solve_exact_ot(OtProblem(cost, mu, nu)).objective


# ============================================================
# Joint and conditional distances over feature x label space
# ============================================================


def _joint_cost(p: DiscreteJointDistribution, q: DiscreteJointDistribution,
                label_cost: float) -> np.ndarray:
    if p.features.shape[1] != q.features.shape[1]:
        raise DimensionMismatch("joint distributions disagree on feature dimension")
    diff = p.features[:, None, :] - q.features[None, :, :]
    dz = np.sqrt(np.sum(diff * diff, axis=2))
    return dz + label_cost * (p.labels[:, None] != q.labels[None, :])


def joint_wasserstein(p: DiscreteJointDistribution, q: DiscreteJointDistribution,
                      label_cost: float = 1.0) -> float:
    """W1 over feature-label space with ground cost ||z-z'|| + label_cost*[y != y']."""
    if label_cost < 0:
        raise ValueError("label_cost must be nonnegative")
    return wasserstein_distance(_joint_cost(p, q, label_cost), p.masses, q.masses)


def _group_by_feature(d: DiscreteJointDistribution) -> dict[bytes, tuple[float, dict[int, float]]]:
    """Map exact feature bytes -> (marginal mass, conditional label distribution)."""
    groups: dict[bytes, tuple[float, dict[int, float]]] = {}
    for i in range(d.masses.size):
        mass = float(d.masses[i])
        if mass <= 0.0:
            continue
        key = d.features[i].tobytes()
        total, cond = groups.setdefault(key, (0.0, {}))
        cond[int(d.labels[i])] = cond.get(int(d.labels[i]), 0.0) + mass
        groups[key] = (total + mass, cond)
    return groups


def conditional_wasserstein_term(p: DiscreteJointDistribution,
                                 q: DiscreteJointDistribution,
                                 weighting: str = "source",
                                 label_cost: float = 1.0) -> float:
    """Expected per-feature W1 between the two conditional label distributions.

    The expectation runs over the feature marginal of ``p`` (weighting
    "source") or ``q`` ("target"); features are matched by exact equality.
    """
    if weighting not in ("source", "target"):
        raise ValueError(f"weighting must be 'source' or 'target', got {weighting!r}")
    gp = _group_by_feature(p)
    gq = _group_by_feature(q)
    weigh = gp if weighting == "source" else gq
    weigh_mass = sum(w for w, _ in weigh.values())
    total = 0.0
    for key, (mass, _) in weigh.items():
        if key not in gp or key not in gq:
            raise SupportMismatch(
                "a feature atom of the weighting marginal is missing from the other support"
            )
        cond_p, cond_q = gp[key][1], gq[key][1]
        labels = sorted(set(cond_p) | set(cond_q))
        a = np.array([cond_p.get(y, 0.0) for y in labels])
        b = np.array([cond_q.get(y, 0.0) for y in labels])
        a /= a.sum()
        b /= b.sum()
        cost = label_cost * (1.0 - np.eye(len(labels)))
        total += (mass / weigh_mass) * wasserstein_distance(cost, a, b)
    return total
