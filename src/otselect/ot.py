"""Exact discrete optimal transport with fixed marginals.

The solver is a primal simplex specialized to transportation structure:
least-cost (matrix-minimum) initialization, spanning-tree bases, cycle
pivoting. The least-cost start, a greedy initial basis after Ahuja,
Magnanti & Orlin 1993 (*Network Flows*, ch. 11), fills the cheapest open
cell first, so it begins much closer to the optimum than the northwest
corner: on the 60-150 x 40-300 solves of ``run_pipeline`` and the bound
reports it takes about a third fewer pivots.

From 3,600 cells up, a cold start first runs 20 iterations of the
log-domain Sinkhorn loop (``sinkhorn._sinkhorn_potentials`` with fixed
marginals mu and nu) on C / max C, and the least-cost rule takes the cells
by their entropic reduced costs C / max C - f - g instead of by C
(Schmitzer 2019; Peyre & Cuturi 2019, ch. 4). Zero-mass rows and columns
are left out of the run and sort after every other cell. Near-optimal duals
put most of the optimal basis first: on the pipeline's 120-150 x 40-60
solves the start saves about half the pivots. Only the order of the cells
changes, so the start is still a spanning tree feasible for the perturbed
marginals, and the pivots and the certificate are those of any cold solve.
Below 3,600 cells the start is the least-cost one on C: the run pays for
itself only from about 40 x 40, saves at most a millisecond or so per solve
below 60 x 60, and the grid oracle's small solves keep their plans bit for
bit.

From the same 3,600 cells up, ``solve_exact_ot`` solves a problem whose mu
or nu has a zero entry on its block of positive mass alone: ``_solve`` on
C[rows, cols], mu[rows] and nu[cols], with rows and cols the lines that
carry mass, and the block's values written into the full plan. A zero-mass
row would sit in the basis tree and be priced at every pivot for nothing:
at the paper's shape (10,000 x 50, 600 rows with mass) the block takes a
solve from 16.4 s to 0.12 s on a 2-core Xeon, with the objective equal bit
for bit. The objective is the block's; the gap is certified over all n·m
cells (``_lifted_gap``), each zero-mass row r lifted to the potential u_r =
min_j (C_rj - v_j) over the block's columns. On degenerate problems the
block may end on another optimal plan than the full problem would. Below
3,600 cells every solve is on the full problem, as the grid oracle's.

Degeneracy is resolved by an exact symbolic perturbation: each basic value
carries an integer count of an infinitesimal epsilon next to its mass, as if
row r supplied r + 1 epsilon more and the last column demanded n(n+1)/2
more. Masses within 1e-14 of each other are ordered by their counts. With
this order in the least-cost start, the warm-start test, the dual repair and
the ratio test, every basis is feasible for the perturbed problem (strongly
feasible trees: Cunningham 1976; Ahuja, Magnanti & Orlin 1993, §11.5), so
the solve cannot cycle and the true marginals are never altered.
Reduced costs are compared with a tolerance relative to the largest cost,
so scaling the cost scales the objective and changes nothing else.

The basis tree (``_Tree``) is kept as parent, parent-cell and depth arrays
rooted at row 0, next to the dual potentials (u_0 = 0). A pivot finds its
cycle by walking both ends of the entering cell up to their common ancestor.
The leaving cell cuts off one subtree; it is re-hung from the entering cell
and only its potentials move, all by the entering cell's reduced cost.

``_solve`` is the one way into the simplex, for ``solve_exact_ot`` and for
the grid oracle of ``classlp``, and it may start from a basis tree that it
is given. Optimality of a basis depends on the cost alone, so a sequence of
solves over one cost with nearby marginals, as in the grid oracle, carries
one tree, with its potentials, from each solve to the next; ``_solve``
gives the tree its values for the new marginals. A basis that is feasible
for the new marginals is optimal at once. One that is not is still
dual-feasible, and is repaired by the dual network simplex (Ahuja, Magnanti
& Orlin 1993, *Network Flows*, ch. 11): the most negative basic cell leaves,
and the cheapest cell across the cut it opens enters, through the same
pivot step as the primal simplex. A few such pivots replace a cold restart.

A carried tree also keeps what it has computed from its potentials: the
reduced costs C - u - v with the place of the least of them, the
c-transform of its row potentials that certifies the gap, and the order of
its nodes by depth; and what it knows of its cost, the largest entry and
the tolerance it sets. Only a pivot moves the potentials and the depths,
and it drops the first three, so a solve that makes no pivot prices no cell
again and recomputes no certificate pass.

``_solve`` returns the optimal basis's n + m - 1 cells and values, with
their objective summed over those cells alone and correctly rounded, and
the duality gap it has certified against that objective; never a dense
plan. So a solve that makes no pivot is O(n + m): it creates no n x m array
and makes no pass over all n·m cells. ``solve_exact_ot`` writes the values
into a dense plan and reports that objective as it is, and that gap unless
it solved a block, whose gap it certifies again over the full problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (DiscreteJointDistribution, FeatureMatrix, TransportPlan, _check_cost,
                   _check_count, _check_simplex, _freeze)
from .distance import pairwise_distances
from .errors import SolverFailure
from .sinkhorn import SinkhornConfig, _c_transform, _row_blocks, _sinkhorn_potentials

# Masses closer than this count as equal, and their epsilon counts order them.
_TIE = 1e-14
# Cold solves of at least this many cells order the least-cost start by the
# reduced costs of a 20-iteration Sinkhorn run on C / max C (``_start_costs``).
_SEED_MIN_CELLS = 3600
_SEED = SinkhornConfig(epsilon=1e-3, max_iters=20)


@dataclass(frozen=True)
class OtProblem:
    """Cost matrix plus source and target marginals, each a probability vector."""

    cost: np.ndarray
    mu: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        c = _check_cost(_freeze(self.cost))
        mu = _freeze(self.mu, check=lambda a: _check_simplex(a, c.shape[0], "mu"))
        nu = _freeze(self.nu, check=lambda a: _check_simplex(a, c.shape[1], "nu"))
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)


def _eps_weights(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The perturbation in units of epsilon: row r supplies r + 1 more and
    the last column demands n(n+1)/2 more, so the two sides still balance."""
    b = np.zeros(m, dtype=np.int64)
    b[-1] = n * (n + 1) // 2
    return np.arange(1, n + 1), b


def _lex_less(x: float, kx: int, y: float, ky: int) -> bool:
    """Whether x + kx·epsilon < y + ky·epsilon for an infinitesimal epsilon."""
    return x < y - _TIE or (x <= y + _TIE and kx < ky)


def _least_cost_start(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[list[int], list[int]]:
    """Spanning tree of n+m-1 cells by the least-cost (matrix-minimum) rule.

    Cells are taken by increasing cost, ties in row-major order, skipping
    those whose row or column is closed. Each taken cell closes one line:
    its row when a_i <= b_j by ``_lex_less``, else its column, but never the
    last open row while columns remain, or the reverse. Every closed line
    hangs from a line still open, so the cells span, and they are feasible
    for the perturbed marginals. Values are resolved separately.
    """
    n, m = C.shape
    a, b = a.tolist(), b.tolist()
    ka, kb = (w.tolist() for w in _eps_weights(n, m))
    row_open = [True] * n
    col_open = [True] * m
    rows_left, cols_left = n, m
    bi: list[int] = []
    bj: list[int] = []
    for pos in np.argsort(C, axis=None, kind="stable").tolist():
        i, j = divmod(pos, m)
        if not (row_open[i] and col_open[j]):
            continue
        bi.append(i)
        bj.append(j)
        if rows_left + cols_left == 2:
            break
        if cols_left == 1 or (rows_left > 1 and not _lex_less(b[j], kb[j], a[i], ka[i])):
            row_open[i] = False
            rows_left -= 1
            b[j] -= a[i]
            kb[j] -= ka[i]
        else:
            col_open[j] = False
            cols_left -= 1
            a[i] -= b[j]
            ka[i] -= kb[j]
    return bi, bj


def _start_costs(C: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """The costs whose order the cold least-cost start follows.

    Below _SEED_MIN_CELLS cells, or when C is all zero, that is C itself.
    Above, it is the reduced costs C / max C - f - g under the potentials of
    a short log-domain Sinkhorn run (``_SEED``) between mu and nu, on the
    rows and columns of positive mass; the others get +inf, so they sort
    after every other cell. Near-optimal duals put the cells of the optimal
    plan first (Schmitzer 2019; Peyre & Cuturi 2019, ch. 4).
    """
    c_max = float(C.max())
    if C.size < _SEED_MIN_CELLS or c_max == 0.0:
        return C
    rows, cols = np.flatnonzero(mu > 0.0), np.flatnonzero(nu > 0.0)
    D = C[np.ix_(rows, cols)] / c_max
    f, g, *_ = _sinkhorn_potentials(D, None, None, _SEED,
                                    marginals=(np.log(mu[rows]), np.log(nu[cols])))
    out = np.full(C.shape, np.inf)
    out[np.ix_(rows, cols)] = D - f[:, None] - g
    return out


@dataclass(slots=True)
class _Tree:
    """A spanning-tree basis rooted at row 0, with its dual potentials.

    Nodes 0..n-1 are rows and n..n+m-1 columns; cell e joins row bi[e] and
    column bj[e]. ``adj`` maps each node to its neighbours and the cells
    joining them; ``parent``, ``pcell`` (the cell to the parent) and ``depth``
    root the tree. ``pot`` holds u then v, with u[0] = 0 and u_i + v_j = C_ij
    on every basic cell. Basic cell e has value vals[e] + eps[e]·epsilon.

    A tree is solved on one cost, whose largest entry ``c_max`` and
    reduced-cost tolerance ``rc_tol`` (1e-11 of c_max) it holds
    (``_basis_tree``). Four caches hold for the current potentials under that
    cost, and are None until computed: ``rc``, the reduced costs C - u - v,
    and ``low``, the flat position of the least of them (``_priced``);
    ``g``, the certificate's c-transform min_i (C_ij - u_i) (``_solve``);
    and ``order``, the non-root nodes deepest first (``values``). ``pivot``,
    the only step that moves potentials and depths, clears all four. ``out``
    is where ``rc`` is priced, allocated on the first pricing and kept.
    """

    n: int
    bi: list[int]
    bj: list[int]
    adj: list[dict[int, int]]
    parent: list[int]
    pcell: list[int]
    depth: list[int]
    pot: list[float]
    vals: list[float]
    eps: list[int]
    c_max: float
    rc_tol: float
    rc: np.ndarray | None = None
    low: int | None = None
    g: np.ndarray | None = None
    order: list[int] | None = None
    out: np.ndarray | None = None

    def values(self, a: np.ndarray, b: np.ndarray) -> list[float]:
        """Basic-cell values for row marginal a and column marginal b: the
        cell joining a node to its parent carries the net supply of the
        node's subtree (rows supply a, columns demand b)."""
        n, parent, pcell = self.n, self.parent, self.pcell
        net = a.tolist() + (-b).tolist()
        vals = [0.0] * (len(net) - 1)
        if self.order is None:
            self.order = sorted(range(1, len(net)), key=self.depth.__getitem__, reverse=True)
        for x in self.order:
            net[parent[x]] += net[x]
            vals[pcell[x]] = net[x] if x < n else -net[x]
        return vals

    def child(self, e: int) -> int:
        """The node that basic cell e joins to its parent."""
        x = self.bi[e]
        return x if self.parent[x] == self.n + self.bj[e] else self.n + self.bj[e]

    def least(self, cells) -> int:
        """The first of ``cells`` whose value is least by ``_lex_less``."""
        vals, eps = self.vals, self.eps
        best, v, k = -1, np.inf, 0
        for e in cells:
            x = vals[e]
            if x < v - _TIE or (x <= v + _TIE and eps[e] < k):  # _lex_less, inlined
                best, v, k = e, x, eps[e]
        return best

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
              el: int, delta: float) -> None:
        """Swap basic cell ``el`` for cell (ei, ej).

        ``side_a``/``side_b`` are ``cycle(ei, n + ej)``, the cycle the cell
        closes, and ``el`` is on it. Going round it from row ei, cells entered
        row-first lose theta (a mass and an epsilon count) and the others gain
        it, with theta such that ``el`` ends at zero and the entering cell at
        theta. The subtree cut off below ``el`` is re-hung from the entering
        cell, and its potentials shift by the cell's reduced cost delta, which
        clears the tree's caches.
        """
        self.rc = self.low = self.g = self.order = None
        n, adj, parent, pcell, depth, pot, vals, eps = (
            self.n, self.adj, self.parent, self.pcell, self.depth, self.pot,
            self.vals, self.eps)
        leave = self.child(el)
        on_a = leave in side_a
        sign = 1 if (leave < n) == on_a else -1  # 1 when ``el`` loses theta
        theta, k = sign * vals[el], sign * eps[el]
        for side, t, kt in ((side_a, theta, k), (side_b, -theta, -k)):
            for x in side:  # a row child's cell is entered row-first on side a
                e = pcell[x]
                vals[e], eps[e] = (vals[e] - t, eps[e] - kt) if x < n else (vals[e] + t, eps[e] + kt)
        p = parent[leave]
        del adj[leave][p], adj[p][leave]
        self.bi[el], self.bj[el] = ei, ej
        vals[el], eps[el] = theta, k
        adj[ei][n + ej] = adj[n + ej][ei] = el
        s, t = (ei, n + ej) if on_a else (n + ej, ei)
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


def _basis_tree(bi: list[int], bj: list[int], cost: np.ndarray) -> _Tree | None:
    """The basis tree of cells (bi, bj), with potentials under ``cost``, the
    epsilon counts of its cells and the cost's scale (``c_max``, ``rc_tol``),
    but no values (``_solve`` sets them); None unless the cells span every
    node."""
    n, m = cost.shape
    adj: list[dict[int, int]] = [dict() for _ in range(n + m)]
    for e in range(len(bi)):
        adj[bi[e]][n + bj[e]] = adj[n + bj[e]][bi[e]] = e
    parent, pcell = [-1] * (n + m), [-1] * (n + m)  # parent -1: the root, or not reached yet
    depth, pot = [0] * (n + m), [0.0] * (n + m)
    stack = [0]
    while stack:
        x = stack.pop()
        for y, e in adj[x].items():
            if y and parent[y] < 0:
                parent[y], pcell[y], depth[y] = x, e, depth[x] + 1
                pot[y] = cost.item(bi[e], bj[e]) - pot[x]
                stack.append(y)
    if -1 in parent[1:]:
        return None
    c_max = float(cost.max(initial=0.0))
    rc_tol = 1e-11 * c_max if c_max > 0.0 else 1e-11
    tree = _Tree(n, bi, bj, adj, parent, pcell, depth, pot, [], [], c_max, rc_tol)
    tree.eps = tree.values(*_eps_weights(n, m))  # the counts depend on the tree alone
    return tree


def _reduced_costs(C: np.ndarray, tree: _Tree, out: np.ndarray) -> np.ndarray:
    """C_ij - u_i - v_j under the tree's potentials, written to ``out``."""
    uv = np.array(tree.pot)
    np.subtract(C, uv[:tree.n, None], out=out)
    out -= uv[tree.n:]
    return out


def _priced(C: np.ndarray, tree: _Tree) -> tuple[np.ndarray, int]:
    """The tree's reduced costs and the flat position of the least of them,
    priced into the tree's buffer only when the tree holds none for its
    current potentials."""
    if tree.rc is None:
        if tree.out is None:
            tree.out = np.empty_like(C)
        tree.rc = _reduced_costs(C, tree, tree.out)
        tree.low = int(tree.rc.argmin())
    return tree.rc, tree.low


def _dual_repair(tree: _Tree, C: np.ndarray, cap: int) -> tuple[_Tree | None, int]:
    """Dual simplex pivots that make a dual-feasible basis primal-feasible.

    Each pivot drops the basic cell of most negative value (by ``_lex_less``),
    which cuts off the subtree below its child node: a row child's subtree
    lacks mass, a column child's has too much. The cell of least reduced cost
    from a row outside the subtree to a column inside it (row child), or the
    reverse (column child), enters; the reduced costs across the cut move by
    its own, the least of them, so the basis stays dual-feasible. Returns the
    repaired tree (as it stands when already feasible) and the pivots made,
    or None in its place when the basis is infeasible and not dual-feasible
    (a reduced cost below the tree's rc_tol), needs more than n + m pivots or
    has no entering cell. Raises ``SolverFailure`` when a pivot is due at the
    cap.

    A tree whose values all exceed the tie tolerance is feasible whatever its
    epsilon counts, and returns at once. Reduced costs come from ``_priced``,
    so they are priced only when a pivot is due, once per set of potentials.
    """
    n, m = C.shape
    if min(tree.vals) > _TIE:
        return tree, 0
    for pivots in range(n + m + 1):
        low = min(tree.vals) + _TIE  # cells of more mass lose to the least one
        e = tree.least([f for f, v in enumerate(tree.vals) if v <= low])
        if not _lex_less(tree.vals[e], tree.eps[e], 0.0, 0):
            return tree, pivots
        if pivots == n + m:
            break
        rc, least = _priced(C, tree)
        if pivots == 0 and rc.item(least) < -tree.rc_tol:
            return None, 0
        if pivots == cap:
            raise SolverFailure(f"transportation simplex hit the {cap}-pivot cap")
        x = tree.child(e)
        inside = np.zeros(n + m, dtype=bool)
        inside[tree.subtree(x)] = True
        rows = np.flatnonzero(inside[:n] != (x < n))
        cols = np.flatnonzero(inside[n:] == (x < n))
        if rows.size == 0 or cols.size == 0:  # only a rounding-level value can leave none
            break
        pos = int(rc[rows[:, None], cols].argmin())
        ei, ej = int(rows[pos // cols.size]), int(cols[pos % cols.size])
        tree.pivot(ei, ej, *tree.cycle(ei, n + ej), e, rc.item(ei, ej))
    return None, pivots


def solve_exact_ot(problem: OtProblem, max_iters: int | None = None) -> TransportPlan:
    """Optimal coupling between the problem's marginals under its cost.

    Returns a plan whose objective is the exact W1 value, the correctly
    rounded sum of cost times mass over its cells; optimality is certified
    by the attached LP duality gap (that objective minus a dual-feasible one
    built from the terminal potentials), and a gap above 1e-9 of the largest
    cost raises ``SolverFailure``. From _SEED_MIN_CELLS cells up, when mu or
    nu has a zero entry, the simplex runs on the rows and columns of
    positive mass alone, and the gap is still certified over every cell
    (``_lifted_gap``). ``max_iters`` caps the number of pivots; a solve that
    needs more raises ``SolverFailure`` too.
    """
    if max_iters is not None:
        _check_count("max_iters", max_iters, 0)
    C, mu, nu = problem.cost, problem.mu, problem.nu
    rows, cols = np.flatnonzero(mu > 0.0), np.flatnonzero(nu > 0.0)
    if C.size < _SEED_MIN_CELLS or (rows.size, cols.size) == C.shape:
        bi, bj, vals, objective, gap, _ = _solve(C, mu, nu, max_iters=max_iters)
    else:
        bi, bj, vals, objective, _, tree = _solve(C[np.ix_(rows, cols)], mu[rows], nu[cols],
                                                  max_iters=max_iters)
        bi, bj = rows[bi], cols[bj]
        gap = _lifted_gap(C, mu, nu, rows, cols, tree, objective)
    plan = np.zeros(C.shape)
    plan[bi, bj] = vals
    return TransportPlan(plan, mu, nu, objective, dual_gap=gap)


def _lifted_gap(C: np.ndarray, mu: np.ndarray, nu: np.ndarray, rows: np.ndarray,
                cols: np.ndarray, tree: _Tree, objective: float) -> float:
    """The duality gap over all n·m cells of C of a solve on the block
    C[rows, cols], whose final tree is ``tree``; above 1e-9 of the largest
    entry of C it raises ``SolverFailure``.

    The block's rows take their potentials u from the tree, and each
    zero-mass row r takes u_r = min over the block's columns of C_rj - v_j,
    with v the tree's column potentials: it adds nothing to u·mu, and its
    cells C_rj - u_r are at least v_j, so it cannot pull a column's
    c-transform below v_j. The gap is then that of ``_solve``, objective -
    (u·mu + g·nu) with g = ``_c_transform(C, u)``.
    """
    u = np.empty(C.shape[0])
    u[rows] = tree.pot[:rows.size]
    v = np.array(tree.pot[rows.size:])
    for lo, hi in _row_blocks(C.shape[0], cols.size, mu == 0.0):
        u[lo:hi] = (C[lo:hi, cols] - v).min(axis=1)
    gap = max(objective - float(u @ mu + _c_transform(C, u) @ nu), 0.0)
    if gap > 1e-9 * float(C.max()):
        raise SolverFailure(f"transportation simplex duality gap {gap:.3e} above 1e-9 * max C")
    return gap


def _solve(C: np.ndarray, mu: np.ndarray, nu: np.ndarray, tree: _Tree | None = None,
           max_iters: int | None = None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float, _Tree]:
    """The optimal basis's cells (bi, bj) and their values, their objective,
    its certified duality gap and the final tree.

    The plan is the values on cells (bi, bj) and zero elsewhere; no n x m
    array is built here. The objective is summed over the basic cells alone
    and correctly rounded (``math.fsum``), so it does not depend on their
    order. The certificate's gap is that objective minus the dual one, u·mu +
    g·nu, with g = ``_c_transform(C, u)`` making the row potentials u feasible.

    ``tree``, a basis tree of C (``_basis_tree``), is given its values for mu
    and nu here. It is used as it stands when it is feasible for the
    perturbed marginals, repaired by ``_dual_repair`` when it is not, and
    replaced by the cold start when the repair gives up: the least-cost
    start in the order of ``_start_costs``, which is C itself below
    _SEED_MIN_CELLS cells and the Sinkhorn-seeded reduced costs above. The
    tree is changed in place. At most ``max_iters`` pivots are made, dual ones
    included; by default 20nm + 50(n + m) + 200. The reduced-cost tolerance,
    1e-11 of the largest cost, and the certificate's bound, 1e-9 of it, scale
    with C, so scaling C scales nothing else; the tree holds both for its cost.

    The tree's cached pricing and c-transform are used as they stand: a
    carried tree that needs no pivot is neither priced nor checked again over
    its cells, and the solve is O(n + m). The c-transform is taken from C
    and u, never read off the reduced costs, so a certificate never rests on
    the pricing that it checks.
    """
    n, m = C.shape
    cap = max_iters if max_iters is not None else 20 * n * m + 50 * (n + m) + 200

    done = 0  # pivots made so far
    if tree is not None:
        tree.vals = tree.values(mu, nu)
        tree, done = _dual_repair(tree, C, cap)
    if tree is None:
        tree = _basis_tree(*_least_cost_start(_start_costs(C, mu, nu), mu, nu), C)
        assert tree is not None, "the least-cost start must span"
        tree.vals = tree.values(mu, nu)

    for pivots in range(done, cap + 1):  # the last pass only checks optimality
        rc, pos = _priced(C, tree)
        delta = rc.item(pos)
        if delta >= -tree.rc_tol:
            break
        if pivots == cap:
            raise SolverFailure(f"transportation simplex hit the {cap}-pivot cap")
        ei, ej = divmod(pos, m)
        # Going round the cycle closed by the entering cell from row ei, cells entered
        # row-first lose theta: on ei's side those whose child is a row, on the other
        # side those whose child is a column. The first least of them in path order leaves.
        side_a, side_b = tree.cycle(ei, n + ej)
        pcell = tree.pcell
        el = tree.least([pcell[x] for x in side_a if x < n]
                        + [pcell[x] for x in reversed(side_b) if x >= n])
        tree.pivot(ei, ej, side_a, side_b, el, delta)

    # The values for the true marginals, on the optimal basis; they are
    # rebuilt after pivots, which move them by rounding.
    bi, bj = np.array(tree.bi), np.array(tree.bj)
    vals = np.maximum(tree.vals if pivots == 0 else tree.values(mu, nu), 0.0)
    objective = math.fsum((C[bi, bj] * vals).tolist())

    # Rigorous certificate: (u, the c-transform of u) is dual feasible.
    u = np.array(tree.pot[:n])
    if tree.g is None:
        tree.g = _c_transform(C, u)
    dual_obj = float(u @ mu + tree.g @ nu)
    gap = max(objective - dual_obj, 0.0)
    if gap > 1e-9 * tree.c_max:
        raise SolverFailure(f"transportation simplex duality gap {gap:.3e} above 1e-9 * max C")
    return bi, bj, vals, objective, gap, tree


def wasserstein_distance(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    """Convenience wrapper: exact W1 objective only."""
    return solve_exact_ot(OtProblem(cost, mu, nu)).objective


# ============================================================
# Joint distance over feature x label space
# ============================================================


def joint_wasserstein(p: DiscreteJointDistribution, q: DiscreteJointDistribution,
                      label_cost: float = 1.0) -> float:
    """W1 over feature-label space with ground cost ||z-z'|| + label_cost*[y != y'].

    The feature part is ``pairwise_distances``, the one Euclidean kernel of
    every transport cost; it raises ``DimensionMismatch`` on unequal dims."""
    if label_cost < 0:
        raise ValueError("label_cost must be nonnegative")
    cost = pairwise_distances(FeatureMatrix(p.features), FeatureMatrix(q.features))
    cost += label_cost * (p.labels[:, None] != q.labels[None, :])
    return wasserstein_distance(cost, p.masses, q.masses)
