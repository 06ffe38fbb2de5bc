"""Exact discrete optimal transport with fixed marginals.

The solver is a primal simplex specialized to transportation structure:
northwest-corner initialization, spanning-tree bases, cycle pivoting.
Degeneracy is removed up front by the standard marginal perturbation (a
total of 1e-12 spread over the rows in proportion to the row index, and
1e-12 on the last column), and the perturbation is dropped again when the
final plan is rebuilt from the optimal basis. The most-negative-reduced-cost
entering rule is used while progress is made; Bland's rule takes over after
a run of degenerate pivots so the solve cannot cycle. Reduced costs are
compared with a tolerance relative to the largest cost, so scaling the cost
scales the objective and changes nothing else.

The basis tree (``_Tree``) is kept as parent, parent-cell and depth arrays
rooted at row 0, next to the dual potentials (u_0 = 0). A pivot finds its
cycle by walking both ends of the entering cell up to their common ancestor.
The leaving cell cuts off one subtree; it is re-hung from the entering cell
and only its potentials move, all by the entering cell's reduced cost.

A solve may also start from a given basis (``_transport_simplex``).
Optimality of a basis depends on the cost alone, so a sequence of solves
over one cost with nearby marginals, as in the grid oracle of ``classlp``,
passes each solve's final basis to the next. A basis that is feasible for
the new marginals is optimal at once. One that is not is still
dual-feasible, and is repaired by the dual network simplex (Ahuja, Magnanti
& Orlin 1993, *Network Flows*, ch. 11): the most negative basic cell leaves,
and the cheapest cell across the cut it opens enters, through the same
pivot step as the primal simplex. A few such pivots replace a restart from
the northwest corner.
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


@dataclass(slots=True)
class _Tree:
    """A spanning-tree basis rooted at row 0, with its dual potentials.

    Nodes 0..n-1 are rows and n..n+m-1 columns; cell e joins row bi[e] and
    column bj[e]. ``adj`` maps each node to its neighbours and the cells
    joining them; ``parent``, ``pcell`` (the cell to the parent) and ``depth``
    root the tree. ``pot`` holds u then v, with u[0] = 0 and u_i + v_j = C_ij
    on every basic cell.
    """

    n: int
    bi: list[int]
    bj: list[int]
    adj: list[dict[int, int]]
    parent: list[int]
    pcell: list[int]
    depth: list[int]
    pot: list[float]

    def values(self, a: np.ndarray, b: np.ndarray) -> list[float]:
        """Basic-cell values for row marginal a and column marginal b: the
        cell joining a node to its parent carries the net supply of the
        node's subtree (rows supply a, columns demand b)."""
        n, parent, pcell = self.n, self.parent, self.pcell
        net = a.tolist() + (-b).tolist()
        vals = [0.0] * (len(net) - 1)
        for x in sorted(range(1, len(net)), key=self.depth.__getitem__, reverse=True):
            net[parent[x]] += net[x]
            vals[pcell[x]] = net[x] if x < n else -net[x]
        return vals

    def subtree(self, x: int) -> list[int]:
        """The nodes of the subtree below node x, x included."""
        adj, parent = self.adj, self.parent
        nodes = [x]
        for y in nodes:
            nodes.extend(z for z in adj[y] if z != parent[y])
        return nodes

    def cycle(self, a: int, b: int) -> tuple[list[int], list[int]]:
        """The tree path between nodes a and b, as the child node of each of
        its edges: those met walking up from a, then those from b."""
        parent, depth = self.parent, self.depth
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
        return side_a, side_b

    def pivot(self, ei: int, ej: int, side_a: list[int], side_b: list[int],
              leave: int, theta: float, delta: float, vals: list[float]) -> None:
        """Swap the cell above node ``leave`` for cell (ei, ej).

        ``side_a``/``side_b`` are ``cycle(ei, n + ej)``, the cycle the cell
        closes, and ``leave`` is on it. Going round it from row ei, cells
        entered row-first lose theta and the others gain it, so the entering
        cell takes value theta. The subtree cut off below ``leave`` is re-hung
        from the entering cell, and its potentials shift by the cell's
        reduced cost delta.
        """
        n, adj, parent, pcell, depth, pot = (self.n, self.adj, self.parent,
                                             self.pcell, self.depth, self.pot)
        for x in side_a:
            vals[pcell[x]] += -theta if x < n else theta
        for x in side_b:
            vals[pcell[x]] += -theta if x >= n else theta
        el = pcell[leave]
        p = parent[leave]
        del adj[leave][p]
        del adj[p][leave]
        self.bi[el], self.bj[el] = ei, ej
        vals[el] = theta
        adj[ei][n + ej] = el
        adj[n + ej][ei] = el
        s, t = (ei, n + ej) if leave in side_a else (n + ej, ei)
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


def _basis_tree(bi: list[int], bj: list[int], cost: np.ndarray, n: int, m: int) -> _Tree | None:
    """The basis tree of cells (bi, bj) with its potentials under ``cost``,
    or None when the cells do not span every node."""
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
    return _Tree(n, bi, bj, adj, parent, pcell, depth, pot)


def _reduced_costs(C: np.ndarray, tree: _Tree, out: np.ndarray) -> np.ndarray:
    """C_ij - u_i - v_j under the tree's potentials, written to ``out``."""
    uv = np.array(tree.pot)
    np.subtract(C, uv[:tree.n, None], out=out)
    out -= uv[tree.n:]
    return out


def _dual_repair(tree: _Tree, vals: list[float], C: np.ndarray, rc_tol: float,
                 cap: int) -> tuple[_Tree | None, int]:
    """Dual simplex pivots that make a dual-feasible basis primal-feasible.

    Each pivot drops the basic cell of most negative value. That cuts off
    the subtree below the cell's child node, whose net supply has the wrong
    sign: a row child's subtree lacks mass, a column child's has too much.
    The entering cell is the one of least reduced cost from a row outside
    the subtree to a column inside it (row child), or from a row inside to a
    column outside (column child). The subtree is re-hung from it, and the
    reduced costs of the cells across the cut move by the entering cell's,
    the least of them, so the basis stays dual-feasible. Returns the
    repaired tree and the pivots made, or None in its place when the basis
    is not dual-feasible, needs more than n + m pivots or has no entering
    cell. Raises ``SolverFailure`` when a pivot is due at the cap.
    """
    n, m = C.shape
    rc = _reduced_costs(C, tree, np.empty_like(C))
    if rc.min() < -rc_tol:
        return None, 0
    for pivots in range(n + m + 1):
        e = min(range(len(vals)), key=vals.__getitem__)
        if vals[e] >= 0.0:
            return tree, pivots
        if pivots == n + m:
            break
        if pivots == cap:
            raise SolverFailure(f"transportation simplex hit the {cap}-pivot cap")
        x = tree.bi[e]
        if tree.parent[x] != n + tree.bj[e]:
            x = n + tree.bj[e]
        inside = np.zeros(n + m, dtype=bool)
        inside[tree.subtree(x)] = True
        rows = np.flatnonzero(inside[:n] != (x < n))
        cols = np.flatnonzero(inside[n:] == (x < n))
        if rows.size == 0 or cols.size == 0:  # only a rounding-level value can leave none
            break
        pos = int(rc[rows[:, None], cols].argmin())
        ei, ej = int(rows[pos // cols.size]), int(cols[pos % cols.size])
        tree.pivot(ei, ej, *tree.cycle(ei, n + ej), x, -vals[e], rc.item(ei, ej), vals)
        _reduced_costs(C, tree, rc)
    return None, pivots


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

    ``basis`` must be a spanning tree of this problem's shape. It is used as
    it stands when it is primal-feasible for the perturbed marginals. When
    it is not, but it is dual-feasible for this cost (every reduced cost
    >= -rc_tol, as the optimal basis of the same cost under other marginals
    is), dual simplex pivots (``_dual_repair``) first make it feasible. Any
    other basis, or a repair that would need more than n + m pivots or finds
    no entering cell, gives way to the northwest corner. Dual pivots count
    toward ``max_iters``. Single-row or single-column problems need no
    simplex and return None as their basis.
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

    # Relative to the largest cost, so that scaling C scales nothing else.
    c_max = float(C.max(initial=0.0))
    rc_tol = 1e-11 * c_max if c_max > 0.0 else 1e-11
    cap = max_iters if max_iters is not None else 20 * n * m + 50 * (n + m) + 200

    tree = None
    done = 0  # pivots made so far
    if (basis is not None and len(basis[0]) == n + m - 1
            and max(basis[0]) < n and max(basis[1]) < m):
        tree = _basis_tree(list(basis[0]), list(basis[1]), C, n, m)
        if tree is not None:
            vals = tree.values(mu_p, nu_p)
            if min(vals) < 0.0:
                tree, done = _dual_repair(tree, vals, C, rc_tol, cap)
    if tree is None:
        tree = _basis_tree(*_northwest_corner(mu_p, nu_p), C, n, m)
        vals = tree.values(mu_p, nu_p)

    degenerate_run = 0
    bland = False
    rc = np.empty_like(C)
    for pivots in range(done, cap + 1):  # the last pass only checks optimality
        _reduced_costs(C, tree, rc)
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

        # Going round the cycle closed by the entering cell from row ei,
        # cells entered row-first lose theta: on ei's side those whose child
        # is a row, on the other side those whose child is a column. The
        # first minimum in path order leaves.
        side_a, side_b = tree.cycle(ei, n + ej)
        pcell = tree.pcell
        theta = np.inf
        leave = -1
        for x in side_a:
            if x < n and vals[pcell[x]] < theta:
                theta = vals[pcell[x]]
                leave = x
        for x in reversed(side_b):
            if x >= n and vals[pcell[x]] < theta:
                theta = vals[pcell[x]]
                leave = x
        tree.pivot(ei, ej, side_a, side_b, leave, theta, delta, vals)

        if theta <= 1e-14:
            degenerate_run += 1
            if degenerate_run > 2 * (n + m):
                bland = True
        else:
            degenerate_run = 0
            bland = False

    # Rebuild the plan for the unperturbed marginals from the optimal basis.
    final_vals = np.array(tree.values(mu, nu))
    if final_vals.min() < -1e-8:
        raise SolverFailure(f"basis infeasible after de-perturbation: {final_vals.min():.3e}")
    plan = np.zeros((n, m))
    plan[tree.bi, tree.bj] = np.maximum(final_vals, 0.0)
    objective = float(np.sum(C * plan))

    # Rigorous certificate: shift u until (u, v) is dual feasible, then gap.
    uv = np.array(tree.pot)
    u, v = uv[:n], uv[n:]
    violation = max(0.0, float((u[:, None] + v[None, :] - C).max()))
    dual_obj = float(u @ mu + v @ nu) - violation * float(mu.sum())
    gap = max(objective - dual_obj, 0.0)
    return TransportPlan(plan, mu, nu, objective, dual_gap=gap), (tuple(tree.bi), tuple(tree.bj))


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
