"""Command-line interface: exit codes, JSON payloads, file outputs."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import otselect
from otselect import (
    FeatureMatrix,
    LabeledDataset,
    SoftmaxHead,
    TrainConfig,
    load_class_weights,
    load_feature_matrix,
    load_labels,
    pairwise_distances,
    run_pipeline,
    save_feature_matrix,
    save_head,
    save_labels,
)
from otselect.cli import main
from otselect.pipeline import PIPELINE_METHODS

from conftest import rng


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def file_hash(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def write_scenario_files(tmp_path, fmt="csv"):
    """Tiny two-domain fixture on disk, labels with non-dense external ids."""
    r = rng(0)
    d = tmp_path / "data"
    d.mkdir(exist_ok=True)
    ext = "csv" if fmt == "csv" else "wsf"
    paths = {}
    blocks = {0: r.normal(size=(6, 2)), 5: r.normal(size=(6, 2)) + 8.0,
              9: r.normal(size=(6, 2)) - 8.0}
    src = np.vstack(list(blocks.values()))
    src_labels = np.repeat([0, 5, 9], 6)
    paths["source"] = str(d / f"src.{ext}")
    paths["source_labels"] = str(d / "src.lbl")
    save_feature_matrix(FeatureMatrix(src), paths["source"], format=fmt)
    save_labels(src_labels, paths["source_labels"])
    for split, n in (("train", 5), ("test", 7)):
        tgt = np.vstack([r.normal(size=(n, 2)) + 8.0, r.normal(size=(n, 2)) + 7.0])
        labels = np.repeat([2, 4], n)
        paths[f"target_{split}"] = str(d / f"t{split}.{ext}")
        paths[f"target_{split}_labels"] = str(d / f"t{split}.lbl")
        save_feature_matrix(FeatureMatrix(tgt), paths[f"target_{split}"], format=fmt)
        save_labels(labels, paths[f"target_{split}_labels"])
    return paths


def test_distance_subcommand(tmp_path, capsys):
    a, b = rng(1).normal(size=(4, 3)), rng(2).normal(size=(5, 3))
    pa, pb, out = str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), str(tmp_path / "d.csv")
    save_feature_matrix(FeatureMatrix(a), pa, format="csv")
    save_feature_matrix(FeatureMatrix(b), pb, format="csv")
    code, payload, _ = run_cli(capsys, "distance", "--source", pa, "--target", pb,
                               "--format", "csv", "--out", out)
    assert code == 0
    assert payload["subcommand"] == "distance"
    assert payload["rows"] == 4 and payload["cols"] == 5
    assert out in payload["outputs"]
    got = load_feature_matrix(out, format="csv").values
    np.testing.assert_allclose(got, pairwise_distances(FeatureMatrix(a), FeatureMatrix(b)),
                               atol=1e-12)


def test_ot_subcommand_reports_distance_and_gap(tmp_path, capsys):
    cost = np.abs(np.arange(3)[:, None] - np.arange(3)[None, :]).astype(float)
    pc = str(tmp_path / "c.csv")
    save_feature_matrix(FeatureMatrix(cost), pc, format="csv")
    code, payload, _ = run_cli(capsys, "ot", "--cost", pc, "--format", "csv")
    assert code == 0
    assert payload["w1"] == pytest.approx(0.0)  # identity assignment
    assert payload["dual_gap"] <= 1e-7


def test_ot_with_explicit_marginals(tmp_path, capsys):
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    pc, pm, pn = (str(tmp_path / n) for n in ("c.csv", "mu.csv", "nu.csv"))
    save_feature_matrix(FeatureMatrix(cost), pc, format="csv")
    for path, vec in ((pm, [1.0, 0.0]), (pn, [0.0, 1.0])):
        with open(path, "w") as f:
            f.write("\n".join(str(v) for v in vec) + "\n")
    code, payload, _ = run_cli(capsys, "ot", "--cost", pc, "--format", "csv",
                               "--mu", pm, "--nu", pn)
    assert code == 0
    assert payload["w1"] == pytest.approx(1.0)


def test_ot_with_an_all_zero_marginal_exits_one(tmp_path, capsys):
    pc, pm = str(tmp_path / "c.csv"), str(tmp_path / "mu.csv")
    save_feature_matrix(FeatureMatrix(np.ones((2, 2))), pc, format="csv")
    with open(pm, "w") as f:
        f.write("0\n0\n")
    code, payload, err = run_cli(capsys, "ot", "--cost", pc, "--format", "csv", "--mu", pm)
    assert (code, payload) == (1, None)
    assert "error: mu has no positive entry" in err


def test_ot_writes_a_csv_plan_that_prices_to_its_w1(tmp_path, capsys):
    cost = rng(3).random((5, 7))
    pc, plan_path = str(tmp_path / "c.csv"), str(tmp_path / "plan.csv")
    save_feature_matrix(FeatureMatrix(cost), pc, format="csv")
    code, payload, _ = run_cli(capsys, "ot", "--cost", pc, "--format", "csv",
                               "--out-plan", plan_path)
    assert code == 0
    assert plan_path in payload["outputs"]
    plan = load_feature_matrix(plan_path, format="csv").values
    np.testing.assert_allclose(plan.sum(axis=1), 1 / 5, rtol=0, atol=1e-12)
    np.testing.assert_allclose(plan.sum(axis=0), 1 / 7, rtol=0, atol=1e-12)
    # CSV keeps 17 significant digits, so the reloaded plan prices exactly
    assert math.fsum((cost * plan).ravel()) == payload["w1"]


def test_select_writes_a_csv_plan_with_the_weights_as_row_sums(tmp_path, capsys):
    paths = write_scenario_files(tmp_path)
    out_w, plan_path = str(tmp_path / "w.json"), str(tmp_path / "plan.csv")
    code, payload, _ = run_cli(capsys, "select", "--source", paths["source"],
                               "--source-labels", paths["source_labels"],
                               "--target", paths["target_train"], "--format", "csv",
                               "--out-weights", out_w, "--out-plan", plan_path)
    assert code == 0
    assert plan_path in payload["outputs"]
    plan = load_feature_matrix(plan_path, format="csv").values
    weights = load_class_weights(out_w)
    # the source rows are grouped by class (ids 0, 5, 9), six rows each
    rows = np.repeat([weights[c] / 6 for c in (0, 5, 9)], 6)
    assert plan.shape == (18, 10)
    np.testing.assert_allclose(plan.sum(axis=1), rows, rtol=0, atol=1e-9)
    np.testing.assert_allclose(plan.sum(axis=0), 1 / 10, rtol=0, atol=1e-9)


def test_select_writes_valid_weights(tmp_path, capsys):
    paths = write_scenario_files(tmp_path)
    out_w = str(tmp_path / "w.json")
    report = str(tmp_path / "sel.json")
    code, payload, _ = run_cli(capsys, "select", "--source", paths["source"],
                               "--source-labels", paths["source_labels"],
                               "--target", paths["target_train"],
                               "--format", "csv", "--out-weights", out_w,
                               "--report", report)
    assert code == 0
    weights = load_class_weights(out_w)
    assert set(weights) == {0, 5, 9}  # original ids, not dense ones
    assert sum(weights.values()) == pytest.approx(1.0)
    assert weights[5] > 0.9  # the class sitting on top of the target
    assert payload["objective"] >= 0
    assert json.load(open(report))["objective"] == pytest.approx(payload["objective"])


def test_select_sinkhorn_solver_agrees_roughly(tmp_path, capsys):
    paths = write_scenario_files(tmp_path)
    out_a, out_b = str(tmp_path / "wa.json"), str(tmp_path / "wb.json")
    _, exact, _ = run_cli(capsys, "select", "--source", paths["source"],
                          "--source-labels", paths["source_labels"],
                          "--target", paths["target_train"], "--format", "csv",
                          "--out-weights", out_a)
    code, ent, _ = run_cli(capsys, "select", "--source", paths["source"],
                           "--source-labels", paths["source_labels"],
                           "--target", paths["target_train"], "--format", "csv",
                           "--out-weights", out_b, "--solver", "sinkhorn")
    assert code == 0
    assert ent["objective"] <= exact["objective"] * 1.2 + 0.05
    for report in (exact, ent):
        assert np.isfinite(report["dual_gap"]) and report["dual_gap"] >= 0


def test_pipeline_subcommand(tmp_path, capsys):
    paths = write_scenario_files(tmp_path)
    report = str(tmp_path / "pipe.json")
    code, payload, _ = run_cli(capsys, "pipeline",
                               "--source", paths["source"],
                               "--source-labels", paths["source_labels"],
                               "--target-train", paths["target_train"],
                               "--target-train-labels", paths["target_train_labels"],
                               "--target-test", paths["target_test"],
                               "--target-test-labels", paths["target_test_labels"],
                               "--format", "csv", "--method", "wass",
                               "--epochs", "15", "--report", report)
    assert code == 0
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert payload["method"] == "wass"
    assert payload["support_size"] >= 1
    assert json.load(open(report))["accuracy"] == payload["accuracy"]


@pytest.mark.parametrize("method", PIPELINE_METHODS)
def test_pipeline_subcommand_reports_what_run_pipeline_returns(tmp_path, capsys, method):
    paths = write_scenario_files(tmp_path)
    code, payload, err = run_cli(capsys, "pipeline",
                                 "--source", paths["source"],
                                 "--source-labels", paths["source_labels"],
                                 "--target-train", paths["target_train"],
                                 "--target-train-labels", paths["target_train_labels"],
                                 "--target-test", paths["target_test"],
                                 "--target-test-labels", paths["target_test_labels"],
                                 "--format", "csv", "--method", method, "--epochs", "15")
    assert code == 0, err

    def load(split):
        labels, mapping = load_labels(paths[f"{split}_labels"])
        feats = load_feature_matrix(paths[split], format="csv")
        return LabeledDataset(feats, labels), np.array(list(mapping))

    (source, src_ids), (train, tgt_ids), (test, test_ids) = map(
        load, ("source", "target_train", "target_test"))
    res = run_pipeline(source, train, test, method=method,
                       cfg=TrainConfig(learning_rate=0.5, epochs=15, seed=0),
                       source_class_ids=src_ids, target_class_ids=tgt_ids,
                       test_class_ids=test_ids)
    assert payload["accuracy"] == res.report.accuracy
    assert payload["w1_objective"] == res.w1_objective
    assert payload["support_size"] == res.support_size
    assert payload["weights"] == {str(c): w for c, w in zip(src_ids.tolist(),
                                                            res.weights.weights.tolist())}
    assert payload["per_class_accuracy"] == {
        str(c): a for c, a in zip(res.finetuned.class_list.tolist(),
                                  res.report.per_class_accuracy.tolist())}


def test_pipeline_rejects_test_labels_unseen_in_training(tmp_path, capsys):
    paths = write_scenario_files(tmp_path)
    # corrupt the test labels with an id the train split never saw
    save_labels(np.array([2] * 7 + [77] * 7), paths["target_test_labels"])
    code, payload, err = run_cli(capsys, "pipeline",
                                 "--source", paths["source"],
                                 "--source-labels", paths["source_labels"],
                                 "--target-train", paths["target_train"],
                                 "--target-train-labels", paths["target_train_labels"],
                                 "--target-test", paths["target_test"],
                                 "--target-test-labels", paths["target_test_labels"],
                                 "--format", "csv")
    assert code == 1
    assert "77" in err


def test_pipeline_accepts_a_test_split_that_lacks_a_train_class(tmp_path, capsys):
    paths = write_scenario_files(tmp_path)
    # keep only the test rows of class 2; class 4 is in the train split alone
    held = load_feature_matrix(paths["target_test"], format="csv").values[:7]
    save_feature_matrix(FeatureMatrix(held), paths["target_test"], format="csv")
    save_labels(np.full(7, 2), paths["target_test_labels"])
    code, payload, err = run_cli(capsys, "pipeline",
                                 "--source", paths["source"],
                                 "--source-labels", paths["source_labels"],
                                 "--target-train", paths["target_train"],
                                 "--target-train-labels", paths["target_train_labels"],
                                 "--target-test", paths["target_test"],
                                 "--target-test-labels", paths["target_test_labels"],
                                 "--format", "csv", "--epochs", "15")
    assert code == 0, err
    assert payload["n_eval"] == 7
    assert list(payload["per_class_accuracy"]) == ["2"]
    assert payload["per_class_accuracy"]["2"] == pytest.approx(payload["accuracy"])


def test_pipeline_accepts_a_test_split_that_lacks_the_first_train_class(tmp_path, capsys):
    paths = write_scenario_files(tmp_path)
    # keep only the test rows of class 4: the test file's dense label 0 is the
    # train file's dense label 1, so the test split is scored by its own ids
    held = load_feature_matrix(paths["target_test"], format="csv").values[7:]
    save_feature_matrix(FeatureMatrix(held), paths["target_test"], format="csv")
    save_labels(np.full(7, 4), paths["target_test_labels"])
    code, payload, err = run_cli(capsys, "pipeline",
                                 "--source", paths["source"],
                                 "--source-labels", paths["source_labels"],
                                 "--target-train", paths["target_train"],
                                 "--target-train-labels", paths["target_train_labels"],
                                 "--target-test", paths["target_test"],
                                 "--target-test-labels", paths["target_test_labels"],
                                 "--format", "csv", "--epochs", "15")
    assert code == 0, err
    assert payload["n_eval"] == 7
    assert list(payload["per_class_accuracy"]) == ["4"]
    assert payload["per_class_accuracy"]["4"] == pytest.approx(payload["accuracy"])


def test_select_reports_an_unreached_sinkhorn_target_as_a_warning(tmp_path, capsys):
    paths = write_scenario_files(tmp_path)
    code, payload, err = run_cli(capsys, "select", "--source", paths["source"],
                                 "--source-labels", paths["source_labels"],
                                 "--target", paths["target_train"], "--format", "csv",
                                 "--out-weights", str(tmp_path / "w.json"),
                                 "--solver", "sinkhorn", "--sinkhorn-max-iters", "5")
    assert code == 0
    assert payload["converged"] is False
    assert len(payload["warnings"]) == 1
    assert payload["warnings"][0].startswith("target epsilon not reached after 5 iterations")
    assert f"warning: {payload['warnings'][0]}" in err.splitlines()


def test_bound_subcommand(tmp_path, capsys):
    paths = write_scenario_files(tmp_path)
    r = rng(3)
    pre = SoftmaxHead(r.normal(size=(5, 2)), np.array([0, 5, 9, 2, 4]))
    fin = SoftmaxHead(r.normal(size=(5, 2)), np.array([0, 5, 9, 2, 4]))
    pp, pf = str(tmp_path / "pre.json"), str(tmp_path / "fin.json")
    save_head(pre, pp)
    save_head(fin, pf)
    code, payload, _ = run_cli(capsys, "bound", "--pretrained-head", pp,
                               "--finetuned-head", pf,
                               "--source", paths["source"],
                               "--source-labels", paths["source_labels"],
                               "--target", paths["target_test"],
                               "--target-labels", paths["target_test_labels"],
                               "--format", "csv")
    assert code == 0
    for key in ("eps_source", "eps_target", "w1_joint", "rho_upper", "bound_value", "holds"):
        assert key in payload
    assert payload["bound_value"] >= payload["eps_source"]


def test_bound_with_a_head_wider_than_the_features_exits_one(tmp_path, capsys):
    paths = write_scenario_files(tmp_path)
    wide = SoftmaxHead(np.zeros((5, 3)), np.array([0, 5, 9, 2, 4]))
    head = str(tmp_path / "wide.json")
    save_head(wide, head)
    code, payload, err = run_cli(capsys, "bound", "--pretrained-head", head,
                                 "--finetuned-head", head,
                                 "--source", paths["source"],
                                 "--source-labels", paths["source_labels"],
                                 "--target", paths["target_test"],
                                 "--target-labels", paths["target_test_labels"],
                                 "--format", "csv")
    assert code == 1 and payload is None
    assert err.strip() == ("error: features of shape (18, 2) do not fit a head over "
                           "3 feature columns")


def test_select_refuses_a_label_beyond_int64(tmp_path, capsys):
    # the label used to escape as numpy's OverflowError, with a traceback
    paths = write_scenario_files(tmp_path)
    path = paths["source_labels"]
    lines = open(path, encoding="utf-8").read().splitlines()
    lines[-1] = str(2**63)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    code, payload, err = run_cli(capsys, "select", "--source", paths["source"],
                                 "--source-labels", path, "--target", paths["target_train"],
                                 "--format", "csv", "--out-weights", str(tmp_path / "w.json"))
    assert code == 1 and payload is None
    assert err.strip() == f"error: {path}:{len(lines)}: label {2**63} is not in [0, 2^63)"


def test_verify_exits_nonzero_while_any_check_fails(capsys):
    code, payload, _ = run_cli(capsys, "verify", "--trials", "60", "--seed", "3")
    assert code == 1  # two checks measure claims that do not hold
    names = {c["name"] for c in payload["checks"]}
    assert len(names) == 12
    assert payload["all_passed"] is False
    failing = {c["name"] for c in payload["checks"] if not c["passed"]}
    assert failing == {"softmax_lipschitz", "joint_decomposition"}


def test_synth_writes_all_six_files(tmp_path, capsys):
    out_dir = str(tmp_path / "scen")
    code, payload, _ = run_cli(capsys, "synth", "--kind", "dda", "--k-source", "3",
                               "--k-target", "2", "--separation", "9",
                               "--per-class", "6", "--out-dir", out_dir,
                               "--format", "csv", "--seed", "4")
    assert code == 0
    assert len(payload["outputs"]) == 6
    src = load_feature_matrix(payload["outputs"][0], format="csv")
    assert src.rows == 18


def test_synth_then_experiment_csv_is_deterministic(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[experiment]\nmethods = wass, all\nseeds = 0, 1\nepochs = 6\n\n"
        "[scenario t]\nkind = dda\nk_source = 3\nk_target = 2\nseparation = 9\n"
        "per_class = 6\nper_class_train = 5\nper_class_test = 5\nseed = 2\n"
    )
    out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    code, payload, _ = run_cli(capsys, "experiment", "--config", str(ini), "--out", out1)
    assert code == 0
    code, _, _ = run_cli(capsys, "experiment", "--config", str(ini), "--out", out2)
    assert code == 0
    assert file_hash(out1) == file_hash(out2)
    header = open(out1).readline().strip()
    assert header.startswith("scenario,method,seed,status,accuracy")


def test_experiment_to_stdout_prints_csv_not_json(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[experiment]\nmethods = all\nseeds = 0\nepochs = 4\n\n"
        "[scenario t]\nkind = dda\nk_source = 2\nk_target = 2\nseparation = 9\n"
        "per_class = 5\nper_class_train = 4\nper_class_test = 4\nseed = 2\n"
    )
    code = main(["experiment", "--config", str(ini)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("scenario,method,seed,")


def test_experiment_cells_that_fail_become_error_rows(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nmethods = all\nseeds = 0, 1\nepochs = 2\n\n"
                   "[scenario broken]\nkind = oda\noverlap = 0\n")
    out = str(tmp_path / "r.csv")
    code, payload, err = run_cli(capsys, "experiment", "--config", str(ini), "--out", out)
    assert code == 0
    assert payload["cells"] == 2 and payload["warnings"] == ["2 cells failed"]
    assert "warning: 2 cells failed" in err.splitlines()
    with open(out, newline="") as f:
        cells = list(csv.DictReader(f))
    assert [c["status"].startswith("error: ") for c in cells] == [True, True, False]
    assert all("overlap" in c["status"] for c in cells[:2])
    summary = cells[2]
    assert summary["status"] == "summary"
    assert summary["accuracy_mean"] == "" and summary["accuracy_std"] == ""


def test_a_negative_thread_count_exits_one(tmp_path, capsys):
    # it ran the cells inline and wrote an ok CSV
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nmethods = all\nseeds = 0\nepochs = 2\n\n[scenario t]\n")
    out = tmp_path / "r.csv"
    code, payload, err = run_cli(capsys, "--threads", "-2", "experiment", "--config", str(ini),
                                 "--out", str(out))
    assert (code, payload) == (1, None)
    assert "threads must be an integer >= 0, got -2" in err
    assert not out.exists()


def test_an_experiment_config_that_every_cell_refuses_exits_one(tmp_path, capsys):
    # it wrote one error row per cell and exited 0
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nmethods = all\nseeds = 0\nepochs = 0\n\n[scenario t]\n")
    out = tmp_path / "r.csv"
    code, payload, err = run_cli(capsys, "--threads", "1", "experiment", "--config", str(ini),
                                 "--out", str(out))
    assert (code, payload) == (1, None)
    assert "epochs must be an integer >= 1, got 0" in err
    assert not out.exists()


def test_payload_carries_version_config_and_timings(tmp_path, capsys):
    cost = str(tmp_path / "c.csv")
    save_feature_matrix(FeatureMatrix(np.eye(2)), cost, format="csv")
    code, payload, _ = run_cli(capsys, "ot", "--cost", cost, "--format", "csv")
    assert code == 0
    assert payload["version"]
    assert isinstance(payload["config"], dict)
    assert isinstance(payload["timings_ms"], dict)


def test_missing_required_argument_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["select", "--source", "x.csv"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["teleport"])
    assert exc.value.code == 2


def test_missing_input_file_exits_one(tmp_path, capsys):
    code, payload, err = run_cli(capsys, "distance", "--source", str(tmp_path / "no.csv"),
                                 "--target", str(tmp_path / "no2.csv"),
                                 "--format", "csv", "--out", str(tmp_path / "o.csv"))
    assert code == 1
    assert err.strip()


def test_subcommands_do_not_mutate_inputs(tmp_path, capsys):
    paths = write_scenario_files(tmp_path)
    hashes = {p: file_hash(p) for p in paths.values()}
    run_cli(capsys, "select", "--source", paths["source"],
            "--source-labels", paths["source_labels"],
            "--target", paths["target_train"], "--format", "csv",
            "--out-weights", str(tmp_path / "w.json"))
    run_cli(capsys, "pipeline", "--source", paths["source"],
            "--source-labels", paths["source_labels"],
            "--target-train", paths["target_train"],
            "--target-train-labels", paths["target_train_labels"],
            "--target-test", paths["target_test"],
            "--target-test-labels", paths["target_test_labels"],
            "--format", "csv", "--epochs", "4")
    assert hashes == {p: file_hash(p) for p in paths.values()}


def run_module(tmp_path, *argv):
    """``python -m otselect`` in a subprocess, with the package on its path."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(otselect.__file__)))
    return subprocess.run([sys.executable, "-m", "otselect", *argv], capture_output=True,
                          text=True, cwd=tmp_path, env=env, timeout=120)


def test_python_dash_m_entry_point(tmp_path):
    proc = run_module(tmp_path, "--quiet", "synth", "--per-class", "4", "--dim", "2",
                      "--format", "csv", "--out-dir", "tmp")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["subcommand"] == "synth" and len(payload["outputs"]) == 6
    assert all(os.path.exists(tmp_path / p) for p in payload["outputs"])
    proc = run_module(tmp_path, "select", "--source", "x.csv")
    assert proc.returncode == 2
    assert "required" in proc.stderr
