"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/smoke_test.py

Each workload must print every metric that BENCHMARK.json names, with its
unit, in both modes; and a corrupted solver output must be counted as a
failed item.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_otselect()
import otselect  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()


def test_run_lists_the_same_workloads_as_benchmark_json():
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(name, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_a_corrupted_objective_is_a_failed_item(name, monkeypatch):
    solve = otselect.solve_class_weights

    def corrupted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        return dataclasses.replace(sol, objective=sol.objective + 1e3)

    for module in (otselect, otselect.classlp, otselect.pipeline):
        monkeypatch.setattr(module, "solve_class_weights", corrupted)
    result = run.measure(workloads.build(name, 1, tiny=True), 0.0, False, None, "smoke")
    assert 0 < result["failed"] <= result["attempted"]


def test_default_seed_outputs_are_checked_against_the_reference():
    with open(run.REFERENCE, encoding="utf-8") as f:
        reference = json.load(f)
    wl = workloads.build("oracle-grid", workloads.DEFAULT_SEED)
    first = dataclasses.replace(wl, items=wl.items[:1])
    ok = run.measure(first, 0.0, False, reference["oracle-grid"], "smoke")
    assert ok["failed"] == 0
    shifted = {k: [v * (1 + 1e-6) for v in vals]
               for k, vals in reference["oracle-grid"].items()}
    bad = run.measure(first, 0.0, False, shifted, "smoke")
    assert bad["failed"] == 1


def test_item_times_are_divided_by_the_slowdown_around_them():
    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.blocks = [(0.0, 1.0, 0.5 * probe.reference_s), (1.5, 2.0, probe.reference_s),
                    (5.0, 6.0, 2.0 * probe.reference_s)]
    assert probe.slowdown(2.0, 5.0) == pytest.approx(1.5)
    assert probe.slowdown(6.5, 7.0) == pytest.approx(2.0)
    probe.block()
    assert len(probe.blocks) == 4 and probe.blocks[-1][2] > 0


def test_without_the_sources_it_exits_nonzero_and_prints_no_result():
    root = os.path.join(run.OUT, "bare-checkout")
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(root, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lp-scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=root)
    shutil.rmtree(root)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
