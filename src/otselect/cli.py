"""Multi-subcommand command line front end.

Machine-readable results go to standard output as one JSON report per run
(or to the files named by output flags); diagnostics go to standard error.
Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .bounds import compute_bound_report, run_verification_suite
from .classlp import solve_class_weights
from .data import (
    ClassWeights,
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
    load_head,
    run_pipeline,
    sort_by_class,
)
from .sinkhorn import SinkhornConfig, sinkhorn_class_weights
from .synth import build_scenario


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="otselect",
        description="Class selection by optimal transport, with a train/fine-tune "
                    "pipeline and numerical bound diagnostics.",
    )
    p.add_argument("--seed", type=int, default=0, help="default seed for subcommands")
    p.add_argument("--threads", type=int, default=0,
                   help="worker processes for experiment cells (0 = all cores)")
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


def _external_ids(mapping: dict[int, int]) -> np.ndarray:
    ids = np.empty(len(mapping), dtype=np.int64)
    for orig, dense in mapping.items():
        ids[dense] = orig
    return ids


def _load_dataset(feat_path, label_path, format: str
                  ) -> tuple[LabeledDataset, np.ndarray, dict[int, int]]:
    feats = load_feature_matrix(feat_path, format=format)
    dense, mapping = load_labels(label_path)
    return LabeledDataset(feats, dense), _external_ids(mapping), mapping


def _write_report(path, doc, outputs: list) -> None:
    """Write ``doc`` as indented JSON to ``path``, when one is given, and list it."""
    if path:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        outputs.append(path)


def _cmd_distance(args, timings, warnings):
    t0 = time.perf_counter()
    src = load_feature_matrix(args.source, format=args.format)
    tgt = load_feature_matrix(args.target, format=args.format)
    timings["load"] = (time.perf_counter() - t0) * 1000
    t0 = time.perf_counter()
    D = pairwise_distances(src, tgt)
    timings["compute"] = (time.perf_counter() - t0) * 1000
    t0 = time.perf_counter()
    save_feature_matrix(FeatureMatrix(D), args.out, format=args.format)
    timings["write"] = (time.perf_counter() - t0) * 1000
    return {"rows": int(D.shape[0]), "cols": int(D.shape[1])}, [args.out]


def _cmd_ot(args, timings, warnings):
    t0 = time.perf_counter()
    cost = load_feature_matrix(args.cost, format=args.format).values
    n, m = cost.shape
    mu = load_vector_csv(args.mu) if args.mu else np.full(n, 1.0 / n)
    nu = load_vector_csv(args.nu) if args.nu else np.full(m, 1.0 / m)
    timings["load"] = (time.perf_counter() - t0) * 1000
    t0 = time.perf_counter()
    plan = solve_exact_ot(OtProblem(cost, mu, nu))
    timings["solve"] = (time.perf_counter() - t0) * 1000
    outputs = []
    if args.out_plan:
        save_feature_matrix(FeatureMatrix(plan.plan), args.out_plan, format=args.format)
        outputs.append(args.out_plan)
    return {"w1": plan.objective, "dual_gap": plan.dual_gap}, outputs


def _cmd_select(args, timings, warnings):
    t0 = time.perf_counter()
    dataset, ids, mapping = _load_dataset(args.source, args.source_labels, args.format)
    target = load_feature_matrix(args.target, format=args.format)
    timings["load"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    ordered = sort_by_class(dataset)
    D = pairwise_distances(ordered.features, target)
    if args.solver == "exact":
        sol = solve_class_weights(D, ordered.class_counts)
    else:
        cfg = SinkhornConfig(epsilon=args.epsilon, max_iters=args.sinkhorn_max_iters,
                             tol=args.sinkhorn_tol)
        sol = sinkhorn_class_weights(D, ordered.class_counts, cfg)
    timings["solve"] = (time.perf_counter() - t0) * 1000
    if sol.warning:
        warnings.append(sol.warning)

    t0 = time.perf_counter()
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
    timings["write"] = (time.perf_counter() - t0) * 1000
    return payload, outputs


def _cmd_pipeline(args, timings, warnings):
    t0 = time.perf_counter()
    source, src_ids, _ = _load_dataset(args.source, args.source_labels, args.format)
    ttrain, tgt_ids, _ = _load_dataset(args.target_train, args.target_train_labels,
                                       args.format)
    ttest, test_ids, _ = _load_dataset(args.target_test, args.target_test_labels,
                                       args.format)
    timings["load"] = (time.perf_counter() - t0) * 1000
    missing = set(test_ids.tolist()) - set(tgt_ids.tolist())
    if missing:
        raise OtselectError(f"test labels {sorted(missing)} never seen in target train")
    # align test dense ids onto the train class space
    test_pos = {int(c): i for i, c in enumerate(tgt_ids)}
    remapped = np.array([test_pos[int(test_ids[v])] for v in ttest.labels], dtype=np.int64)
    ttest = LabeledDataset(ttest.features, remapped) if (
        remapped != ttest.labels).any() else ttest

    t0 = time.perf_counter()
    cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed)
    result = run_pipeline(source, ttrain, ttest, method=args.method, cfg=cfg,
                          budget=args.budget, source_class_ids=src_ids,
                          target_class_ids=tgt_ids)
    timings["pipeline"] = (time.perf_counter() - t0) * 1000
    warnings.extend(result.warnings)

    payload = {
        "method": result.method,
        "accuracy": result.report.accuracy,
        "zero_one_error": result.report.zero_one_error,
        "cross_entropy": result.report.cross_entropy,
        "per_class_accuracy": {
            str(int(c)): float(a) for c, a in
            zip(result.finetuned.class_list, result.report.per_class_accuracy)
        },
        "n_eval": result.report.n_eval,
        "w1_objective": result.w1_objective,
        "support_size": result.support_size,
        "weights": {str(int(src_ids[i])): float(result.weights.weights[i])
                    for i in range(result.weights.k)},
    }
    outputs = []
    _write_report(args.report, payload, outputs)
    return payload, outputs


def _cmd_bound(args, timings, warnings):
    t0 = time.perf_counter()
    pre = load_head(args.pretrained_head)
    fine = load_head(args.finetuned_head)
    sfeat = load_feature_matrix(args.source, format=args.format)
    sdense, smap = load_labels(args.source_labels)
    tfeat = load_feature_matrix(args.target, format=args.format)
    tdense, tmap = load_labels(args.target_labels)
    timings["load"] = (time.perf_counter() - t0) * 1000

    source = DiscreteJointDistribution(
        sfeat.values, _external_ids(smap)[sdense], np.full(sdense.size, 1.0 / sdense.size)
    )
    target = DiscreteJointDistribution(
        tfeat.values, _external_ids(tmap)[tdense], np.full(tdense.size, 1.0 / tdense.size)
    )
    t0 = time.perf_counter()
    report = compute_bound_report(pre, fine, source, target)
    timings["compute"] = (time.perf_counter() - t0) * 1000
    payload = report.to_json_dict()
    outputs = []
    _write_report(args.report, payload, outputs)
    return payload, outputs


def _cmd_verify(args, timings, warnings):
    t0 = time.perf_counter()
    summary = run_verification_suite(args.seed, args.trials)
    timings["suite"] = (time.perf_counter() - t0) * 1000
    if not summary["all_passed"]:
        failed = [c["name"] for c in summary["checks"] if not c["passed"]]
        warnings.append(f"failed checks: {', '.join(failed)}")
    return summary, []


def _cmd_synth(args, timings, warnings):
    import os

    t0 = time.perf_counter()
    sc = build_scenario(args.kind, args.k_source, args.k_target, args.overlap,
                        args.separation, args.seed, dim=args.dim,
                        per_class=args.per_class, near=args.near)
    timings["generate"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
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
    timings["write"] = (time.perf_counter() - t0) * 1000
    payload = {
        "kind": sc.kind,
        "planted_pairs": [list(p) for p in sc.planted],
        "source_classes": sc.source_class_ids.tolist(),
        "target_classes": sc.target_class_ids.tolist(),
    }
    return payload, outputs


def _cmd_experiment(args, timings, warnings):
    t0 = time.perf_counter()
    config = (parse_experiment_config(args.config) if args.config
              else default_dda_matrix())
    timings["load"] = (time.perf_counter() - t0) * 1000
    t0 = time.perf_counter()
    threads = args.threads if args.threads else None
    rows = run_experiment_matrix(config, threads=threads)
    timings["run"] = (time.perf_counter() - t0) * 1000
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
