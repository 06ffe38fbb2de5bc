"""Command-line interface: exit codes, JSON payloads, file outputs."""

import hashlib
import json

import numpy as np
import pytest

from otselect import (
    FeatureMatrix,
    SoftmaxHead,
    load_class_weights,
    load_feature_matrix,
    pairwise_distances,
    save_feature_matrix,
    save_head,
    save_labels,
)
from otselect.cli import main

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
