"""Span tracing of otselect's public functions, installed from outside the package.

Every traced function is replaced by a wrapper in each ``otselect`` module
that binds it (``from .x import f`` copies the binding) and in the package
namespace; deferred imports inside otselect functions read the patched
module attribute at call time. Spans are kept in memory as
``[name, start, end, parent, item]`` and written out when the run ends.
A layer's self time is its spans' duration minus the time covered by
their direct child spans.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

import numpy as np

# (module, function, layer name used in the metric names)
TARGETS = (
    ("otselect.distance", "pairwise_distances", "distance"),
    ("otselect.ot", "solve_exact_ot", "ot"),
    ("otselect.ot", "joint_wasserstein", "ot.joint_wasserstein"),
    ("otselect.classlp", "solve_class_weights", "classlp.lp"),
    ("otselect.classlp", "brute_force_class_weights", "classlp.grid"),
    ("otselect.sinkhorn", "sinkhorn_class_weights", "sinkhorn"),
    ("otselect.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("otselect.pipeline", "train_head", "pipeline.train_head"),
    ("otselect.pipeline", "finetune_head", "pipeline.finetune_head"),
    ("otselect.pipeline", "evaluate", "pipeline.evaluate"),
    ("otselect.bounds", "end_to_end_bound_report", "bounds.end_to_end_bound_report"),
    ("otselect.bounds", "compute_bound_report", "bounds.compute_bound_report"),
    ("otselect.bounds", "estimate_rho", "bounds.estimate_rho"),
    ("otselect.bounds", "largest_singular_value", "bounds.largest_singular_value"),
    ("otselect.synth", "build_scenario", "synth.build_scenario"),
)
LAYERS = tuple(layer for _, _, layer in TARGETS)

# Work counters derived from each call's arguments and result. Sums unless
# the name ends in "_max"; "excess_pct_mean" is filled in by the workload.
COUNTERS = (
    "distance.gflop_computed", "distance.mb_computed",
    "ot.cells", "ot.gap_rel_max",
    "classlp.lp.cells", "classlp.lp.gap_rel_max", "classlp.lp.routed",
    "classlp.grid.points",
    "sinkhorn.cells", "sinkhorn.unconverged", "sinkhorn.excess_pct_mean",
    "sinkhorn.col_dev_max", "sinkhorn.gap_reported",
)


def _gap_rel(plan) -> float:
    return plan.dual_gap / (1.0 + abs(plan.objective)) if plan.dual_gap is not None else 0.0


def _count_distance(c, args, kw, out):
    (n, d), m = args[0].values.shape, args[1].values.shape[0]
    # Gram expansion: the n x m x d product, row norms, and ~7 passes over n x m.
    c["distance.gflop_computed"] += (2 * n * m * d + 2 * (n + m) * d + 7 * n * m) / 1e9
    c["distance.mb_computed"] += 8 * (n * d + m * d + n * m) / 1e6


def _count_ot(c, args, kw, out):
    c["ot.cells"] += args[0].cost.size
    c["ot.gap_rel_max"] = max(c["ot.gap_rel_max"], _gap_rel(out))


def _count_lp(c, args, kw, out):
    c["classlp.lp.cells"] += np.asarray(args[0]).size
    c["classlp.lp.gap_rel_max"] = max(c["classlp.lp.gap_rel_max"], _gap_rel(out.plan))


def _count_grid(c, args, kw, out):
    k, steps = len(args[1]), max(1, round(1.0 / args[2]))
    c["classlp.grid.points"] += math.comb(steps + k - 1, k - 1)


def _count_sinkhorn(c, args, kw, out):
    P = out.plan.plan
    c["sinkhorn.cells"] += P.size
    c["sinkhorn.unconverged"] += 0 if out.converged else 1
    c["sinkhorn.col_dev_max"] = max(c["sinkhorn.col_dev_max"],
                                    float(np.abs(P.sum(axis=0) - 1.0 / P.shape[1]).max()))
    c["sinkhorn.gap_reported"] += 0 if out.plan.dual_gap is None else 1


_COUNT = {"distance": _count_distance, "ot": _count_ot, "classlp.lp": _count_lp,
          "classlp.grid": _count_grid, "sinkhorn": _count_sinkhorn}


class Tracer:
    """Installs span-recording wrappers; ``item`` labels the spans that follow."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self.excess_pct: list[float] = []
        self.item: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer):
        count = _COUNT.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "otselect" or name.startswith("otselect."))]
        for mod_name, fn_name, layer in TARGETS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(original, layer)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float]:
        """calls / self_s / total_s per layer plus the work counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.total_s"] = 0.0
        routed = 0
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - child[idx]
            if name == "sinkhorn" and parent >= 0 and self.spans[parent][0] == "classlp.lp":
                routed += 1
        out.update(self.counters)
        out["classlp.lp.routed"] = routed
        out["sinkhorn.excess_pct_mean"] = (float(np.mean(self.excess_pct))
                                           if self.excess_pct else 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, item in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "item": item}) + "\n")
