"""Experiment matrix: config parsing, execution, summaries, CSV stability."""

import hashlib
import re

import numpy as np
import pytest

from otselect import (
    ExperimentConfig,
    ScenarioConfig,
    parse_experiment_config,
    rows_to_csv,
    run_experiment_matrix,
)
from otselect.experiment import RESULT_COLUMNS, default_dda_matrix
from otselect.errors import MalformedFile

TINY = ExperimentConfig(
    scenarios=(ScenarioConfig(name="tiny", kind="dda", k_source=3, k_target=2,
                              overlap=0, separation=9.0, dim=3, per_class=8,
                              per_class_train=6, per_class_test=6, near=1, seed=3),),
    methods=("wass", "all"),
    seeds=(0, 1),
    epochs=8,
)

INI = """
[experiment]
methods = wass, all
seeds = 0, 1
epochs = 8

[scenario tiny]
kind = dda
k_source = 3
k_target = 2
overlap = 0
separation = 9.0
dim = 3
per_class = 8
per_class_train = 6
per_class_test = 6
near = 1
seed = 3
"""


def test_ini_parsing_matches_programmatic_config(tmp_file):
    path = tmp_file("exp.ini")
    with open(path, "w") as f:
        f.write(INI)
    cfg = parse_experiment_config(path)
    assert cfg.methods == ("wass", "all")
    assert tuple(cfg.seeds) == (0, 1)
    assert cfg.epochs == 8
    assert len(cfg.scenarios) == 1
    assert cfg.scenarios[0] == TINY.scenarios[0]


@pytest.mark.parametrize("text", [
    "not ini at all [",
    "[experiment]\nseeds = a, b\n",
    "[experiment]\nmethods = wass\n",  # no scenario section
    "[scenario x]\nkind = dda\n",  # missing required keys
    "[experiment]\nthreads = -1\n\n[scenario x]\n",  # ran the cells inline
    # each of these wrote one error row per cell
    "[experiment]\nepochs = 0\n\n[scenario x]\n",
    "[experiment]\nlearning_rate = -1\n\n[scenario x]\n",
    "[experiment]\nseeds = -1 0\n\n[scenario x]\n",
    "[experiment]\nbudget = -2\n\n[scenario x]\n",
])
def test_bad_configs_rejected(tmp_file, text):
    path = tmp_file("bad.ini")
    with open(path, "w") as f:
        f.write(text)
    with pytest.raises(MalformedFile):
        parse_experiment_config(path)


def test_a_misspelled_key_is_rejected_by_section_and_name(tmp_file):
    path = tmp_file("typo.ini")
    for text, where in [
        ("[experiment]\n\n[scenario x]\nk_sorce = 6\n", "'k_sorce' in [scenario x]"),
        ("[experiment]\nepoch = 6\n\n[scenario x]\n", "'epoch' in [experiment]"),
    ]:
        with open(path, "w") as f:
            f.write(text)
        with pytest.raises(MalformedFile, match=re.escape(where)):
            parse_experiment_config(path)


@pytest.mark.parametrize("section", ["senario b", "scenariofoo"])
def test_a_misspelled_section_is_rejected_by_name(tmp_file, section):
    path = tmp_file("typo.ini")
    with open(path, "w") as f:
        f.write(f"[experiment]\n\n[scenario a]\n\n[{section}]\n")
    with pytest.raises(MalformedFile, match=re.escape(f"[{section}]")):
        parse_experiment_config(path)


def test_a_bare_scenario_section_takes_every_default(tmp_file):
    path = tmp_file("bare.ini")
    with open(path, "w") as f:
        f.write("[experiment]\n\n[scenario x]\n")
    cfg = parse_experiment_config(path)
    assert cfg.scenarios == (ScenarioConfig("x"),)
    # the INI's seeds default differs from the dataclass's
    assert cfg == ExperimentConfig(cfg.scenarios, seeds=(0, 1, 2))
    # [DEFAULT] reaches every section: its keys are read where they name a
    # field and are no misspelling where they do not
    with open(path, "w") as f:
        f.write("[DEFAULT]\nseed = 5\nepochs = 7\n\n[experiment]\n\n[scenario x]\n")
    cfg = parse_experiment_config(path)
    assert cfg.scenarios == (ScenarioConfig("x", seed=5),) and cfg.epochs == 7


def test_matrix_produces_cell_and_summary_rows():
    rows = run_experiment_matrix(TINY, threads=1)
    cells = [r for r in rows if r["status"] == "ok"]
    summaries = [r for r in rows if r["status"] == "summary"]
    assert len(cells) == 1 * 2 * 2
    assert len(summaries) == 1 * 2
    for row in rows:
        assert set(row) <= set(RESULT_COLUMNS)
    for s in summaries:
        sub = [c["accuracy"] for c in cells if c["method"] == s["method"]]
        assert s["seed"] == "all"
        assert s["accuracy_mean"] == pytest.approx(float(np.mean(sub)))
        assert s["accuracy_std"] == pytest.approx(float(np.std(sub, ddof=1)))


def test_csv_output_is_byte_stable_across_runs():
    a = rows_to_csv(run_experiment_matrix(TINY, threads=1))
    b = rows_to_csv(run_experiment_matrix(TINY, threads=1))
    assert a == b
    header = a.splitlines()[0]
    assert header == ",".join(RESULT_COLUMNS)


def test_worker_pool_matches_inline_execution():
    inline = rows_to_csv(run_experiment_matrix(TINY, threads=1))
    pooled = rows_to_csv(run_experiment_matrix(TINY, threads=2))
    assert inline == pooled


def test_default_matrix_csv_is_pinned(default_matrix_run):
    # the bytes `otselect --threads 1 experiment` writes, here from the pooled
    # run, so the pin also holds pool and inline runs equal on the full matrix;
    # a change that moves any figure of the default matrix must update this
    # digest on purpose
    csv_text = rows_to_csv(default_matrix_run[0])
    assert hashlib.md5(csv_text.encode()).hexdigest() == "452d104c868df1693d7e7f391e208164"


def test_default_matrix_shape():
    cfg = default_dda_matrix()
    assert len(cfg.scenarios) == 3
    assert len(cfg.methods) == 5
    assert len(list(cfg.seeds)) == 10
    names = [s.name for s in cfg.scenarios]
    assert len(set(names)) == 3


def test_config_validation():
    with pytest.raises(MalformedFile):
        ExperimentConfig(scenarios=(), methods=("wass",), seeds=(0,))
    with pytest.raises(MalformedFile):
        ExperimentConfig(scenarios=TINY.scenarios, methods=("teleport",), seeds=(0,))
    with pytest.raises(MalformedFile):
        ExperimentConfig(scenarios=TINY.scenarios, methods=("wass",), seeds=())
