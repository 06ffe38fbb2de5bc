"""Synthetic Gaussian domains for disjoint-label and partial-overlap transfer.

Class means sit on a sphere whose radius scales with the requested
separation, drawn by rejection until all pairwise distances clear the
separation floor. Scenarios can plant chosen target classes a quarter of
the separation away from chosen source classes, giving the selector a
semantically close subset to discover; overlap instead reuses source means
(and class ids) exactly. Everything is deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureMatrix, LabeledDataset, _check_count, _freeze
from .errors import DegenerateInput, InvalidOverlap

_REJECTION_CAP = 10_000


@dataclass(frozen=True)
class SynthSpec:
    """Mixture of isotropic Gaussian classes: (mean, stddev, count) triples."""

    dim: int
    classes: tuple[tuple[np.ndarray, float, int], ...]
    seed: int

    def __post_init__(self):
        _check_count("dim", self.dim, 1)
        if not self.classes:
            raise ValueError("need at least one class")
        frozen = []
        for mean, stddev, count in self.classes:
            mu = _freeze(mean)
            if mu.shape != (self.dim,):
                raise ValueError(f"class mean shape {mu.shape} does not match dim {self.dim}")
            if not stddev > 0:
                raise ValueError("stddev must be positive")
            _check_count("class sample count", count, 1)
            frozen.append((mu, float(stddev), int(count)))
        object.__setattr__(self, "classes", tuple(frozen))


def generate(spec: SynthSpec) -> LabeledDataset:
    """Sample every class of the spec; one generator stream, so bit-stable."""
    rng = np.random.default_rng(spec.seed)
    blocks = []
    labels = []
    for idx, (mean, stddev, count) in enumerate(spec.classes):
        blocks.append(mean + stddev * rng.standard_normal((count, spec.dim)))
        labels.append(np.full(count, idx, dtype=np.int64))
    return LabeledDataset(FeatureMatrix(np.vstack(blocks)), np.concatenate(labels))


def _sphere_point(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    v = rng.standard_normal(dim)
    norm = np.linalg.norm(v)
    while norm < 1e-12:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
    return radius * v / norm

def _place_separated(rng: np.random.Generator, count: int, dim: int, separation: float,
                     existing: list[np.ndarray]) -> list[np.ndarray]:
    """Sphere points at pairwise distance >= separation from everything placed."""
    radius = 2.0 * separation * max(1.0, np.sqrt(count) / 2.0)
    placed: list[np.ndarray] = []
    attempts = 0
    while len(placed) < count:
        candidate = _sphere_point(rng, dim, radius)
        others = existing + placed
        if all(np.linalg.norm(candidate - o) >= separation for o in others):
            placed.append(candidate)
        else:
            attempts += 1
            if attempts > _REJECTION_CAP:
                raise DegenerateInput(
                    f"could not place {count} means at separation {separation} "
                    f"in {dim}-d after {_REJECTION_CAP} rejections"
                )
    return placed


@dataclass(frozen=True)
class Scenario:
    """A generated transfer problem plus the bookkeeping tests need.

    ``source_class_ids``/``target_class_ids`` map each dataset's dense labels
    to external class ids (shared ids encode overlap); ``planted`` lists
    (source_class, target_class) dense index pairs placed close together.
    """

    kind: str
    source: LabeledDataset
    target_train: LabeledDataset
    target_test: LabeledDataset
    source_class_ids: np.ndarray
    target_class_ids: np.ndarray
    planted: tuple[tuple[int, int], ...]
    separation: float


def build_scenario(kind: str, k_source: int, k_target: int, overlap: int,
                   separation: float, seed: int, *, dim: int = 5,
                   per_class: int = 30, per_class_train: int = 20,
                   per_class_test: int = 40, near: int = 1) -> Scenario:
    """Construct one scenario with full metadata.

    ``near`` non-overlapping target classes are planted a quarter separation
    from distinct non-overlapping source classes; the rest keep the full
    separation from every other mean. Every class spreads with standard
    deviation ``separation / 20``. Disjoint-label scenarios give target
    classes fresh external ids; overlapping classes reuse the source ids.
    """
    kind = kind.lower()
    if kind not in ("dda", "oda"):
        raise ValueError(f"kind must be 'dda' or 'oda', got {kind!r}")
    for name, value, least in (("k_source", k_source, 1), ("k_target", k_target, 1),
                               ("overlap", overlap, 0), ("near", near, 0), ("dim", dim, 1),
                               ("per_class", per_class, 1), ("per_class_train", per_class_train, 1),
                               ("per_class_test", per_class_test, 1)):
        _check_count(name, value, least)
    if kind == "dda":
        if overlap != 0:
            raise InvalidOverlap("disjoint-label scenarios require overlap = 0")
    elif not 1 <= overlap <= min(k_source, k_target):
        raise InvalidOverlap(
            f"overlap must be in [1, {min(k_source, k_target)}], got {overlap}"
        )
    if separation <= 0:
        raise ValueError("separation must be positive")
    sd = separation / 20.0
    near = min(near, k_target - overlap, k_source - overlap)

    rng = np.random.default_rng(seed)
    source_means = _place_separated(rng, k_source, dim, separation, [])

    target_means: list[np.ndarray] = [source_means[j] for j in range(overlap)]
    planted = []
    for j in range(near):
        anchor = overlap + j
        offset = _sphere_point(rng, dim, separation / 4.0)
        target_means.append(source_means[anchor] + offset)
        planted.append((anchor, overlap + j))
    remaining = k_target - overlap - near
    if remaining > 0:
        target_means.extend(
            _place_separated(rng, remaining, dim, separation, source_means + target_means)
        )

    def spec_for(means: list[np.ndarray], count: int, sub_seed: int) -> SynthSpec:
        return SynthSpec(dim, tuple((m, sd, count) for m in means), sub_seed)

    source = generate(spec_for(source_means, per_class, seed * 8 + 1))
    target_train = generate(spec_for(target_means, per_class_train, seed * 8 + 2))
    target_test = generate(spec_for(target_means, per_class_test, seed * 8 + 3))

    src_ids = np.arange(k_source, dtype=np.int64)
    tgt_ids = np.concatenate([
        np.arange(overlap, dtype=np.int64),
        k_source + np.arange(k_target - overlap, dtype=np.int64),
    ])
    return Scenario(kind, source, target_train, target_test, src_ids, tgt_ids,
                    tuple(planted), separation)


def make_scenario(kind: str, k_source: int, k_target: int, overlap: int,
                  separation: float, seed: int, **kwargs
                  ) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """The three datasets of a scenario: source, target train, target test."""
    sc = build_scenario(kind, k_source, k_target, overlap, separation, seed, **kwargs)
    return sc.source, sc.target_train, sc.target_test
