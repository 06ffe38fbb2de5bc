"""A fixed calibration kernel that measures how fast the machine runs right now.

On a shared host the same computation's wall time moves by 15-25% within a
minute (other tenants' load; the process's CPU time moves with it, so it is
not steal time). The benchmark runs this kernel in short blocks between
items and divides each item's time by the machine's speed at that moment,
as read from the blocks on either side of it. The kernel does the kinds of
work otselect does, in fixed amounts: interpreted loops over lists and
dicts (the transportation simplex), small-array numpy calls and log-sum-exp
(Sinkhorn, training) and a small HiGHS LP (the class-weight LP). It calls
no otselect code, so a change to otselect cannot change it.

It tracks cache-resident work well and memory-bound work poorly: over ten
runs it cut the spread of a 300x200 LP's time by about half but widened
that of the 1000x500 LP (0.7 GB), whose raw time varied by only 5%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog
from scipy.special import logsumexp

# The kernel's median time on the machine the benchmark was written on
# (2-core Intel Xeon VM, Python 3.11, numpy 2.4, scipy 1.17, one BLAS
# thread). Normalized times are in seconds at that speed.
REFERENCE_S = 0.012


class SpeedProbe:
    """Runs the kernel in blocks; ``blocks`` holds (start, end, median kernel s)."""

    def __init__(self):
        r = np.random.default_rng(12345)
        cost = r.random((12, 10))
        self._matrix = r.random((60, 40))
        self._vec = r.random(40)
        n, m = cost.shape
        rows = np.kron(np.eye(n), np.ones(m))
        cols = np.kron(np.ones(n), np.eye(m))
        self._lp = (cost.ravel(), np.vstack([rows, cols]),
                    np.concatenate([np.full(n, 1 / n), np.full(m, 1 / m)]))
        self.blocks: list[tuple[float, float, float]] = []
        self.reference_s = REFERENCE_S

    def kernel(self) -> float:
        # Interpreted: a dict-of-lists walk like the simplex's spanning tree.
        adj = {i: [(i * 7 + j) % 97 for j in range(4)] for i in range(97)}
        acc = 0.0
        for _ in range(100):
            seen, stack = {0}, [0]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
                        acc += (u * 0.5 + v) % 3.0
        # Small numpy calls.
        x = self._vec
        for _ in range(27):
            y = self._matrix @ x
            x = np.tanh(y[:40] - y.mean())
            acc += float(logsumexp(-np.abs(y)))
        # A small LP through HiGHS.
        c, A, b = self._lp
        acc += linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs").fun
        return acc

    def block(self, min_seconds: float = 0.0) -> None:
        """Run the kernel at least three times and for at least ``min_seconds``;
        record the block's median kernel time, which ignores the first,
        cold run."""
        start = time.perf_counter()
        runs = []
        while len(runs) < 3 or time.perf_counter() - start < min_seconds:
            t0 = time.perf_counter()
            self.kernel()
            runs.append(time.perf_counter() - t0)
        self.blocks.append((start, time.perf_counter(), statistics.median(runs)))

    def slowdown(self, start: float, end: float) -> float:
        """The machine's slowdown against the reference over [start, end]: the
        mean of the last block before and the first block after that
        interval, over ``reference_s``. Wider windows of blocks tracked the
        host's speed less well: it changes within seconds."""
        before = [b for b in self.blocks if b[1] <= start]
        after = [b for b in self.blocks if b[0] >= end]
        near = [b[2] for b in before[-1:] + after[:1]]
        return sum(near) / len(near) / self.reference_s
