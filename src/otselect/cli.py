"""Multi-subcommand command line front end.

Machine-readable results go to standard output as one JSON report per run
(or to the files named by output flags); diagnostics go to standard error.
Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from .bounds import compute_bound_report, run_verification_suite
from .data import (
    DiscreteJointDistribution,
    FeatureMatrix,
    LabeledDataset,
    load_feature_matrix,
    load_labels,
    load_vector_csv,
    save_class_weights,
    save_feature_matrix,
    save_labels,
)
from .distance import pairwise_distances
from .errors import OtselectError
from .experiment import (
    default_dda_matrix,
    parse_experiment_config,
    rows_to_csv,
    run_experiment_matrix,
)
from .ot import OtProblem, solve_exact_ot
from .pipeline import (
    PIPELINE_METHODS,
    TrainConfig,
    _select_and_train,
    evaluate,
    load_head,
    select_weights,
    sort_by_class,
)
from .sinkhorn import SinkhornConfig
from .synth import build_scenario


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="otselect",
        description="Class selection by optimal transport, with a train/fine-tune "
                    "pipeline and numerical bound diagnostics.",
    )
    p.add_argument("--seed", type=int, default=0, help="default seed for subcommands")
    p.add_argument("--threads", type=int, default=0,
                   help="worker processes for experiment cells (0 = the config's "
                        "threads, whose own 0 means all cores)")
    p.add_argument("--quiet", action="store_true", help="suppress progress diagnostics")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("distance", help="pairwise Euclidean distance matrix")
    d.add_argument("--source", required=True)
    d.add_argument("--target", required=True)
    d.add_argument("--format", choices=("binary", "csv"), default="binary")
    d.add_argument("--out", required=True)

    o = sub.add_parser("ot", help="exact optimal transport between two marginals")
    o.add_argument("--cost", required=True)
    o.add_argument("--format", choices=("binary", "csv"), default="binary")
    o.add_argument("--mu", default=None, help="CSV vector; uniform when omitted")
    o.add_argument("--nu", default=None, help="CSV vector; uniform when omitted")
    o.add_argument("--out-plan", default=None)

    s = sub.add_parser("select", help="class weights minimizing transport cost")
    s.add_argument("--source", required=True)
    s.add_argument("--source-labels", required=True)
    s.add_argument("--target", required=True)
    s.add_argument("--format", choices=("binary", "csv"), default="binary")
    s.add_argument("--out-weights", required=True)
    s.add_argument("--out-plan", default=None)
    s.add_argument("--solver", choices=("exact", "sinkhorn"), default="exact")
    s.add_argument("--epsilon", type=float, default=None)
    s.add_argument("--sinkhorn-tol", type=float, default=1e-7)
    s.add_argument("--sinkhorn-max-iters", type=int, default=10_000)
    s.add_argument("--report", default=None)

    pl = sub.add_parser("pipeline", help="select, pre-train, fine-tune, evaluate")
    pl.add_argument("--source", required=True)
    pl.add_argument("--source-labels", required=True)
    pl.add_argument("--target-train", required=True)
    pl.add_argument("--target-train-labels", required=True)
    pl.add_argument("--target-test", required=True)
    pl.add_argument("--target-test-labels", required=True)
    pl.add_argument("--format", choices=("binary", "csv"), default="binary")
    pl.add_argument("--method", choices=PIPELINE_METHODS, default="wass")
    pl.add_argument("--budget", type=int, default=0)
    pl.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    pl.add_argument("--epochs", type=int, default=60)
    pl.add_argument("--lr", type=float, default=0.5)
    pl.add_argument("--report", default=None)

    b = sub.add_parser("bound", help="transfer-bound report for two heads")
    b.add_argument("--pretrained-head", required=True)
    b.add_argument("--finetuned-head", required=True)
    b.add_argument("--source", required=True)
    b.add_argument("--source-labels", required=True)
    b.add_argument("--target", required=True)
    b.add_argument("--target-labels", required=True)
    b.add_argument("--format", choices=("binary", "csv"), default="binary")
    b.add_argument("--report", default=None)

    v = sub.add_parser("verify", help="run every numerical property suite")
    v.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    v.add_argument("--trials", type=int, default=1000)

    sy = sub.add_parser("synth", help="generate a synthetic transfer scenario")
    sy.add_argument("--kind", choices=("dda", "oda"), default="dda")
    sy.add_argument("--k-source", type=int, default=4)
    sy.add_argument("--k-target", type=int, default=3)
    sy.add_argument("--overlap", type=int, default=0)
    sy.add_argument("--separation", type=float, default=10.0)
    sy.add_argument("--dim", type=int, default=5)
    sy.add_argument("--per-class", type=int, default=30)
    sy.add_argument("--near", type=int, default=1)
    sy.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sy.add_argument("--out-dir", required=True)
    sy.add_argument("--format", choices=("binary", "csv"), default="binary")

    e = sub.add_parser("experiment", help="scenario x method x seed matrix to CSV")
    e.add_argument("--config", default=None,
                   help="INI config; the built-in default matrix when omitted")
    e.add_argument("--out", default=None, help="CSV path; standard output when omitted")
    return p


def _load_dataset(feat_path, label_path, format: str
                  ) -> tuple[LabeledDataset, np.ndarray, dict[int, int]]:
    """The dataset in dense labels, the external id of each dense label and the
    external -> dense mapping (``densify_labels`` inserts ids in dense order)."""
    feats = load_feature_matrix(feat_path, format=format)
    dense, mapping = load_labels(label_path)
    return LabeledDataset(feats, dense), np.array(list(mapping), dtype=np.int64), mapping


def _write_report(path, doc, outputs: list) -> None:
    """Write ``doc`` as indented JSON to ``path``, when one is given, and list it."""
    if path:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        outputs.append(path)


@contextmanager
def _timed(timings: dict, key: str):
    """Record the wall time of the ``with`` body, in ms, as ``timings[key]``."""
    t0 = time.perf_counter()
    yield
    timings[key] = (time.perf_counter() - t0) * 1000


def _cmd_distance(args, timings, warnings):
    with _timed(timings, "load"):
        src = load_feature_matrix(args.source, format=args.format)
        tgt = load_feature_matrix(args.target, format=args.format)
    with _timed(timings, "compute"):
        D = pairwise_distances(src, tgt)
    with _timed(timings, "write"):
        save_feature_matrix(FeatureMatrix(D), args.out, format=args.format)
    return {"rows": int(D.shape[0]), "cols": int(D.shape[1])}, [args.out]


def _cmd_ot(args, timings, warnings):
    with _timed(timings, "load"):
        cost = load_feature_matrix(args.cost, format=args.format).values
        n, m = cost.shape
        mu = load_vector_csv(args.mu) if args.mu else np.full(n, 1.0 / n)
        nu = load_vector_csv(args.nu) if args.nu else np.full(m, 1.0 / m)
    with _timed(timings, "solve"):
        plan = solve_exact_ot(OtProblem(cost, mu, nu))
    outputs = []
    if args.out_plan:
        save_feature_matrix(FeatureMatrix(plan.plan), args.out_plan, format=args.format)
        outputs.append(args.out_plan)
    return {"w1": plan.objective, "dual_gap": plan.dual_gap}, outputs


def _cmd_select(args, timings, warnings):
    with _timed(timings, "load"):
        dataset, ids, mapping = _load_dataset(args.source, args.source_labels, args.format)
        target = load_feature_matrix(args.target, format=args.format)

    with _timed(timings, "solve"):
        cfg = (SinkhornConfig(epsilon=args.epsilon, max_iters=args.sinkhorn_max_iters,
                              tol=args.sinkhorn_tol) if args.solver == "sinkhorn" else None)
        sol = select_weights("wass-sinkhorn" if cfg else "wass", sort_by_class(dataset),
                             target, args.seed, sinkhorn_cfg=cfg)
    if sol.warning:
        warnings.append(sol.warning)

    # the report is written inside the span, so it carries no "write" time
    with _timed(timings, "write"):
        save_class_weights(sol.weights, mapping, args.out_weights)
        outputs = [args.out_weights]
        if args.out_plan:
            save_feature_matrix(FeatureMatrix(sol.plan.plan), args.out_plan,
                                format=args.format)
            outputs.append(args.out_plan)
        payload = {
            "objective": sol.objective,
            "support": [int(ids[i]) for i in sol.weights.support()],
            "weights": {str(int(ids[i])): float(sol.weights.weights[i])
                        for i in range(sol.weights.k)},
            "converged": sol.converged,
            "dual_gap": sol.plan.dual_gap,
        }
        _write_report(args.report, {**payload, "timings_ms": timings}, outputs)
    return payload, outputs


def _cmd_pipeline(args, timings, warnings):
    with _timed(timings, "load"):
        source, src_ids, _ = _load_dataset(args.source, args.source_labels, args.format)
        ttrain, tgt_ids, _ = _load_dataset(args.target_train, args.target_train_labels,
                                           args.format)
        ttest, test_ids, _ = _load_dataset(args.target_test, args.target_test_labels,
                                           args.format)

    with _timed(timings, "pipeline"):
        cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed)
        t = _select_and_train(source, ttrain, args.method, cfg, budget=args.budget,
                              source_class_ids=src_ids, target_class_ids=tgt_ids)
        report = evaluate(t.finetuned, ttest.features, test_ids[ttest.labels])
    sol = t.solution
    if sol.warning:
        warnings.append(sol.warning)

    held = set(test_ids.tolist())  # an absent class would read as a 0.0 miss
    payload = {
        "method": args.method,
        "accuracy": report.accuracy,
        "zero_one_error": report.zero_one_error,
        "cross_entropy": report.cross_entropy,
        "per_class_accuracy": {
            str(c): float(a) for c, a in
            zip(t.finetuned.class_list.tolist(), report.per_class_accuracy) if c in held
        },
        "n_eval": report.n_eval,
        "w1_objective": sol.objective,
        "support_size": sol.support_size,
        "weights": {str(int(c)): float(w) for c, w in zip(src_ids, sol.weights.weights)},
    }
    outputs = []
    _write_report(args.report, payload, outputs)
    return payload, outputs


def _cmd_bound(args, timings, warnings):
    with _timed(timings, "load"):
        pre = load_head(args.pretrained_head)
        fine = load_head(args.finetuned_head)
        source, src_ids, _ = _load_dataset(args.source, args.source_labels, args.format)
        target, tgt_ids, _ = _load_dataset(args.target, args.target_labels, args.format)

    with _timed(timings, "compute"):
        report = compute_bound_report(
            pre, fine, DiscreteJointDistribution.from_dataset(source, label_ids=src_ids),
            DiscreteJointDistribution.from_dataset(target, label_ids=tgt_ids))
    payload = report.to_json_dict()
    outputs = []
    _write_report(args.report, payload, outputs)
    return payload, outputs


def _cmd_verify(args, timings, warnings):
    with _timed(timings, "suite"):
        summary = run_verification_suite(args.seed, args.trials)
    if not summary["all_passed"]:
        failed = [c["name"] for c in summary["checks"] if not c["passed"]]
        warnings.append(f"failed checks: {', '.join(failed)}")
    return summary, []


def _cmd_synth(args, timings, warnings):
    with _timed(timings, "generate"):
        sc = build_scenario(args.kind, args.k_source, args.k_target, args.overlap,
                            args.separation, args.seed, dim=args.dim,
                            per_class=args.per_class, near=args.near)

    with _timed(timings, "write"):
        os.makedirs(args.out_dir, exist_ok=True)
        ext = "wsf" if args.format == "binary" else "csv"
        outputs = []

        def emit(name: str, ds: LabeledDataset, ids: np.ndarray) -> None:
            fpath = os.path.join(args.out_dir, f"{name}.{ext}")
            lpath = os.path.join(args.out_dir, f"{name}.lbl")
            save_feature_matrix(ds.features, fpath, format=args.format)
            save_labels(ids[ds.labels], lpath)
            outputs.extend([fpath, lpath])

        emit("source", sc.source, sc.source_class_ids)
        emit("target_train", sc.target_train, sc.target_class_ids)
        emit("target_test", sc.target_test, sc.target_class_ids)
    payload = {
        "kind": sc.kind,
        "planted_pairs": [list(p) for p in sc.planted],
        "source_classes": sc.source_class_ids.tolist(),
        "target_classes": sc.target_class_ids.tolist(),
    }
    return payload, outputs


def _cmd_experiment(args, timings, warnings):
    with _timed(timings, "load"):
        config = (parse_experiment_config(args.config) if args.config
                  else default_dda_matrix())
    with _timed(timings, "run"):
        rows = run_experiment_matrix(config, threads=args.threads or None)
    csv_text = rows_to_csv(rows)
    outputs = []
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(csv_text)
        outputs.append(args.out)
    else:
        sys.stdout.write(csv_text)
    errors = [r for r in rows if str(r["status"]).startswith("error")]
    if errors:
        warnings.append(f"{len(errors)} cells failed")
    payload = {"cells": sum(1 for r in rows if r["status"] != "summary"),
               "rows": len(rows)}
    return payload, outputs


_HANDLERS = {
    "distance": _cmd_distance,
    "ot": _cmd_ot,
    "select": _cmd_select,
    "pipeline": _cmd_pipeline,
    "bound": _cmd_bound,
    "verify": _cmd_verify,
    "synth": _cmd_synth,
    "experiment": _cmd_experiment,
}


def _resolved_config(args: argparse.Namespace) -> dict:
    out = {}
    for key, value in sorted(vars(args).items()):
        if key == "command":
            continue
        out[key] = value if (value is None or isinstance(value, (int, float, bool, str))
                             ) else str(value)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    timings: dict[str, float] = {}
    warn_list: list[str] = []
    try:
        payload, outputs = _HANDLERS[args.command](args, timings, warn_list)
    except (OtselectError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    report = {
        **payload,
        "subcommand": args.command,
        "version": __version__,
        "config": _resolved_config(args),
        "timings_ms": {k: round(v, 3) for k, v in timings.items()},
        "outputs": outputs,
        "warnings": warn_list,
    }
    if args.command != "experiment" or getattr(args, "out", None):
        print(json.dumps(report, indent=2))
    if warn_list and not args.quiet:
        for w in warn_list:
            print(f"warning: {w}", file=sys.stderr)
    if args.command == "verify" and not payload.get("all_passed", True):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
