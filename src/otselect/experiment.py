"""Scenario x method x seed experiment matrix with CSV reporting.

The config is a flat INI file: one ``[experiment]`` section for methods,
seeds and training settings, and one ``[scenario NAME]`` section per
scenario. Cells run independently (worker pool, inline when threads=1),
but rows are emitted in config order so the same config always produces
byte-identical CSV. A failing cell becomes a row with its error message in
the status column; the run continues.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import _check_count
from .errors import MalformedFile, OtselectError
from .pipeline import PIPELINE_METHODS, TrainConfig, run_pipeline
from .synth import build_scenario

RESULT_COLUMNS = ("scenario", "method", "seed", "status", "accuracy",
                  "w1_objective", "support_size", "accuracy_mean", "accuracy_std")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    kind: str = "dda"
    k_source: int = 4
    k_target: int = 3
    overlap: int = 0
    separation: float = 10.0
    dim: int = 5
    per_class: int = 30
    per_class_train: int = 20
    per_class_test: int = 40
    near: int = 1
    seed: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    scenarios: tuple[ScenarioConfig, ...]
    methods: tuple[str, ...] = PIPELINE_METHODS
    seeds: tuple[int, ...] = tuple(range(10))
    epochs: int = 60
    learning_rate: float = 0.5
    batch_size: int = 32
    l2_penalty: float = 0.0
    budget: int = 0
    threads: int = 0

    def __post_init__(self):
        if not self.scenarios:
            raise MalformedFile("experiment config lists no scenarios")
        if not self.methods or not self.seeds:
            raise MalformedFile("experiment config needs methods and seeds")
        for m in self.methods:
            if m not in PIPELINE_METHODS:
                raise MalformedFile(f"unknown method {m!r} in experiment config")
        for seed in self.seeds:
            _check_count("seed", seed, 0)
        _check_count("budget", self.budget, 0)
        _check_count("threads", self.threads, 0)
        _train_config(self)


def _train_config(config: ExperimentConfig) -> TrainConfig:
    """The training fields of ``config`` as one checked ``TrainConfig`` at seed 0."""
    return TrainConfig(epochs=config.epochs, learning_rate=config.learning_rate,
                       batch_size=config.batch_size, l2_penalty=config.l2_penalty)


def default_dda_matrix() -> ExperimentConfig:
    """Three disjoint-label scenarios, each with a planted close subset.

    The planted subset makes the transport-optimal class choice differ from
    uniform in every scenario, which is what the selection comparison needs.
    """
    scenarios = (
        ScenarioConfig("tight-pair", kind="dda", k_source=4, k_target=3,
                       separation=10.0, near=1, seed=11),
        ScenarioConfig("two-anchors", kind="dda", k_source=5, k_target=3,
                       separation=8.0, near=2, seed=23),
        ScenarioConfig("small-target", kind="dda", k_source=4, k_target=2,
                       separation=12.0, near=1, seed=37),
    )
    return ExperimentConfig(scenarios=scenarios)


def _parse_list(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.replace(",", " ").split() if tok.strip()]


# How a scalar field is read from its INI section, by the type of its default.
_READERS = {int: "getint", float: "getfloat", str: "get"}


def _section_fields(parser: configparser.ConfigParser, section: str, cls, path) -> dict:
    """The values that one INI section gives the scalar fields of ``cls``.

    Every key must name a field of ``cls`` with a default; one that does not
    raises ``MalformedFile``, unless it is inherited from [DEFAULT], which
    reaches every section. Each scalar field is read by the type of its
    default, and keeps that default when the section omits it. Fields with a
    tuple default (the [experiment] lists) are left to the caller.
    """
    defaults = {f.name: f.default for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING}
    inherited = parser.defaults()
    values = parser[section]
    for key in values:
        if key not in defaults and key not in inherited:
            raise MalformedFile(f"{path}: unknown key {key!r} in [{section}]")
    return {name: getattr(values, _READERS[type(default)])(name)
            for name, default in defaults.items()
            if name in values and type(default) in _READERS}


def parse_experiment_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as e:
        raise MalformedFile(f"{path}: {e}") from e
    if not read:
        raise MalformedFile(f"{path}: cannot read experiment config")
    if "experiment" not in parser:
        raise MalformedFile(f"{path}: missing [experiment] section")
    exp = parser["experiment"]
    names = {section: section[len("scenario "):].strip()
             for section in parser.sections() if section != "experiment"}
    for section, name in names.items():
        if not section.startswith("scenario ") or not name:
            raise MalformedFile(f"{path}: unknown section [{section}]; expected "
                                "[experiment] or [scenario NAME]")
    try:
        scenarios = tuple(
            ScenarioConfig(name, **_section_fields(parser, section, ScenarioConfig, path))
            for section, name in names.items())
        return ExperimentConfig(
            scenarios=scenarios,
            methods=tuple(_parse_list(exp.get("methods", " ".join(PIPELINE_METHODS)))),
            seeds=tuple(int(t) for t in _parse_list(exp.get("seeds", "0 1 2"))),
            **_section_fields(parser, "experiment", ExperimentConfig, path),
        )
    except ValueError as e:
        raise MalformedFile(f"{path}: bad experiment config value: {e}") from e


def _run_cell(payload: tuple[ScenarioConfig, str, TrainConfig, int]) -> dict:
    scenario, method, cfg, budget = payload
    seed = cfg.seed
    row = {"scenario": scenario.name, "method": method, "seed": seed,
           "status": "ok", "accuracy": None, "w1_objective": None,
           "support_size": None}
    try:
        sc = build_scenario(
            scenario.kind, scenario.k_source, scenario.k_target, scenario.overlap,
            scenario.separation, seed=scenario.seed * 1009 + seed, dim=scenario.dim,
            per_class=scenario.per_class, per_class_train=scenario.per_class_train,
            per_class_test=scenario.per_class_test, near=scenario.near,
        )
        result = run_pipeline(
            sc.source, sc.target_train, sc.target_test, method=method, cfg=cfg,
            budget=budget, source_class_ids=sc.source_class_ids,
            target_class_ids=sc.target_class_ids,
        )
        row["accuracy"] = result.report.accuracy
        row["w1_objective"] = result.w1_objective
        row["support_size"] = result.support_size
    except (OtselectError, ValueError) as e:
        row["status"] = f"error: {e}"
    return row


def run_experiment_matrix(config: ExperimentConfig, threads: int | None = None) -> list[dict]:
    """Every cell's row plus one summary row per scenario x method.

    Row order is fixed by config order regardless of completion order, and
    summary statistics are the mean and sample standard deviation of the
    accuracy over the cell's successful seeds. ``threads`` worker processes
    run the cells, the config's own ``threads`` when None; 0 means all cores,
    and 1 runs them inline. The CLI passes None for its ``--threads 0``.
    """
    threads = config.threads if threads is None else threads
    _check_count("threads", threads, 0)
    if threads == 0:
        threads = os.cpu_count() or 1
    cfg = _train_config(config)
    payloads = [
        (scenario, method, dataclasses.replace(cfg, seed=seed), config.budget)
        for scenario in config.scenarios
        for method in config.methods
        for seed in config.seeds
    ]
    if threads <= 1:
        rows = [_run_cell(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_run_cell, payloads, chunksize=1))

    out: list[dict] = []
    idx = 0
    for scenario in config.scenarios:
        for method in config.methods:
            cell_rows = rows[idx:idx + len(config.seeds)]
            idx += len(config.seeds)
            out.extend(cell_rows)
            acc = np.array([r["accuracy"] for r in cell_rows if r["status"] == "ok"],
                           dtype=np.float64)
            summary = {"scenario": scenario.name, "method": method, "seed": "all",
                       "status": "summary", "accuracy": None, "w1_objective": None,
                       "support_size": None,
                       "accuracy_mean": float(acc.mean()) if acc.size else None,
                       "accuracy_std": float(acc.std(ddof=1)) if acc.size > 1 else 0.0}
            if acc.size == 0:
                summary["accuracy_std"] = None
            out.append(summary)
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in RESULT_COLUMNS])
    return buf.getvalue()
