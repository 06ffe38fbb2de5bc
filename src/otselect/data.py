"""Domain types and file ingestion for embeddings, labels, weights, and plans.

All numeric payloads are numpy arrays in float64 (int64 for labels); types are
frozen after construction and safe to share across threads. Each type holds
its own read-only copies (``_freeze``), so the caller's arrays stay writable
and later writes to them do not reach the type.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    EmptyFile,
    MalformedFile,
    NonFiniteValue,
)

_MAGIC = b"WSF1"

# Weights below this are treated as zero on export.
WEIGHT_CLAMP = 1e-9


def _freeze(values, dtype=np.float64, check=None) -> np.ndarray:
    """A type's own read-only C-contiguous ``dtype`` copy of ``values``, converted in that
    one copy; ``check`` runs on the copy before it is locked and may repair it in place."""
    a = np.array(values, dtype=dtype, order="C")
    if check is not None:
        check(a)
    a.setflags(write=False)
    return a


def _check_finite(values: np.ndarray, what: str) -> None:
    # min and max carry a NaN or inf without an n x m temporary beside a type's own copy
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        idx = np.argwhere(~np.isfinite(values))[0]
        if values.ndim == 2:
            r, c = int(idx[0]), int(idx[1])
            raise NonFiniteValue(f"{what} has non-finite entry at row {r}, col {c}", row=r, col=c)
        raise NonFiniteValue(f"{what} has non-finite entry at index {int(idx[0])}", row=int(idx[0]))


def _check_count(name: str, value, least: int) -> None:
    """Refuse a count that is a bool, not an integer, or below ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_labels(values, what: str = "labels") -> np.ndarray:
    """Labels, class ids or class counts as int64, refusing non-integral values before the cast."""
    y = np.asarray(values)
    if y.dtype.kind not in "biu":
        y = np.asarray(y, dtype=np.float64)
        bad = np.flatnonzero(~(np.isfinite(y) & (y == np.floor(y)) & (np.abs(y) < 2.0**63)))
        if bad.size:
            i = int(bad[0])
            raise MalformedFile(f"{what} must be finite integers, got {float(y.flat[i])} "
                                f"at flat index {i}")
    return y.astype(np.int64, copy=False)


def _check_class_ids(ids, k: int, what: str) -> np.ndarray:
    """A class list: one distinct integer id for each of ``k`` classes."""
    ids = _check_labels(ids, what)
    if ids.shape != (k,):
        raise DimensionMismatch(f"{what} has shape {ids.shape}, expected ({k},) for {k} classes")
    if np.unique(ids).size != k:
        raise MalformedFile(f"{what} has duplicate ids")
    return ids


def _check_probs(values, n: int, what: str) -> np.ndarray:
    """A probability vector of any positive total as float64: ``n`` finite,
    nonnegative entries, not all zero."""
    p = np.asarray(values, dtype=np.float64)
    if p.shape != (n,):
        raise DimensionMismatch(f"{what} has shape {p.shape}; it must align with {n} entries")
    _check_finite(p, what)
    if p.min() < 0:
        raise MalformedFile(f"{what} has negative entry {p.min():.3e}")
    if not p.any():
        raise DegenerateInput(f"{what} has no positive entry")
    return p


def _check_simplex(values, n: int, what: str) -> np.ndarray:
    """:func:`_check_probs` plus a total within 1e-8 of one."""
    p = _check_probs(values, n, what)
    if abs(p.sum() - 1.0) > 1e-8:
        raise MalformedFile(f"{what} has total {p.sum():.12g}, expected 1")
    return p


def _check_cost(cost) -> np.ndarray:
    """A transport cost matrix: contiguous float64, 2-D, non-empty, finite and nonnegative."""
    c = np.ascontiguousarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.size == 0:
        raise DimensionMismatch(f"cost matrix must be 2-D and non-empty, got shape {c.shape}")
    lo, hi = c.min(), c.max()  # a NaN carries into both, with no n x m bool temporary
    if not (lo >= 0 and np.isfinite(hi)):
        raise MalformedFile("cost matrix must be finite and nonnegative")
    return c


# ============================================================
# Core types
# ============================================================


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense real matrix of embeddings; rows are samples, columns are dimensions."""

    values: np.ndarray

    def __post_init__(self):
        v = _freeze(self.values)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise MalformedFile(f"feature matrix must be 2-D and non-empty, got shape {v.shape}")
        _check_finite(v, "feature matrix")
        object.__setattr__(self, "values", v)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix plus a dense class label per row.

    Labels must already be dense in [0, k); use :func:`densify_labels` on raw
    ids first. Every class in the range must be represented.
    """

    features: FeatureMatrix
    labels: np.ndarray
    class_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        lab = _freeze(_check_labels(self.labels), np.int64)
        if lab.ndim != 1 or lab.shape[0] != self.features.rows:
            raise DimensionMismatch(
                f"labels length {lab.shape} does not match {self.features.rows} feature rows"
            )
        if lab.size == 0 or lab.min() < 0:
            raise MalformedFile("labels must be nonnegative integers")
        k = int(lab.max()) + 1
        counts = np.bincount(lab, minlength=k)
        if (counts == 0).any():
            missing = int(np.argwhere(counts == 0)[0][0])
            raise MalformedFile(f"class {missing} in [0, {k}) has no samples; labels must be dense")
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "class_counts", _freeze(counts, np.int64))

    @property
    def n(self) -> int:
        return self.features.rows

    @property
    def k(self) -> int:
        return self.class_counts.shape[0]


@dataclass(frozen=True)
class ClassWeights:
    """Simplex vector over source classes."""

    weights: np.ndarray

    def __post_init__(self):
        w = _freeze(self.weights)
        if w.ndim != 1 or w.size < 1:
            raise DimensionMismatch("weights must be a non-empty vector")
        _check_simplex(w, w.size, "class weights")
        object.__setattr__(self, "weights", w)

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    def support(self) -> np.ndarray:
        """Dense indices of classes carrying weight above ``WEIGHT_CLAMP``."""
        return np.flatnonzero(self.weights > WEIGHT_CLAMP)


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative coupling matrix with its marginals and transport cost.

    ``dual_gap`` is the plan's certified duality gap for the unregularized
    transport LP, which every solver attaches (the exact simplex, the class
    LP and Sinkhorn alike); None for a plan built by hand.
    """

    plan: np.ndarray
    source_marginal: np.ndarray
    target_marginal: np.ndarray
    objective: float
    dual_gap: float | None = None

    def __post_init__(self):
        # a NaN marginal would pass the row and column error test below, which compares false
        mu = _freeze(self.source_marginal, check=lambda a: _check_finite(a, "source marginal"))
        nu = _freeze(self.target_marginal, check=lambda a: _check_finite(a, "target marginal"))
        if not np.isfinite(self.objective):
            raise NonFiniteValue(f"plan objective {self.objective} is not finite")
        if self.dual_gap is not None and not 0.0 <= self.dual_gap < np.inf:
            raise MalformedFile(f"dual gap {self.dual_gap} must be finite and >= 0")

        def check_and_clip(p):
            if p.ndim != 2 or mu.shape != (p.shape[0],) or nu.shape != (p.shape[1],):
                raise DimensionMismatch("plan and marginal shapes disagree")
            _check_finite(p, "transport plan")
            if p.min() < -1e-12:
                raise MalformedFile(f"plan entry {p.min():.3e} is negative")
            row_err = np.abs(p.sum(axis=1) - mu).max()
            col_err = np.abs(p.sum(axis=0) - nu).max()
            if row_err > 1e-7 or col_err > 1e-7:
                raise MalformedFile(f"plan marginals violated: row err {row_err:.3e}, "
                                    f"col err {col_err:.3e}")
            np.maximum(p, 0.0, out=p)

        object.__setattr__(self, "plan", _freeze(self.plan, check=check_and_clip))
        object.__setattr__(self, "source_marginal", mu)
        object.__setattr__(self, "target_marginal", nu)


@dataclass(frozen=True)
class DiscreteJointDistribution:
    """Finitely supported distribution over (feature vector, class id) pairs."""

    features: np.ndarray
    labels: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        z = _freeze(self.features)
        y = _freeze(_check_labels(self.labels, "joint distribution labels"), np.int64)
        if z.ndim != 2 or y.shape != (z.shape[0],):
            raise DimensionMismatch("joint distribution arrays disagree on atom count")
        if z.shape[1] < 1:
            raise MalformedFile("joint distribution needs at least one feature column")
        _check_finite(z, "joint distribution features")
        m = _freeze(self.masses,
                    check=lambda a: _check_simplex(a, z.shape[0], "joint distribution masses"))
        object.__setattr__(self, "features", z)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "masses", m)

    @classmethod
    def from_dataset(cls, ds: LabeledDataset, sample_probs: np.ndarray | None = None,
                     label_ids: np.ndarray | None = None) -> "DiscreteJointDistribution":
        """Empirical joint of a dataset, optionally reweighted per sample.

        ``label_ids`` maps dense labels back to external class ids so joints
        from different domains can share one label vocabulary.
        """
        m = (np.full(ds.n, 1.0 / ds.n) if sample_probs is None
             else _check_probs(sample_probs, ds.n, "sample_probs"))
        y = (ds.labels if label_ids is None
             else _check_class_ids(label_ids, ds.k, "label_ids")[ds.labels])
        keep = m > 0
        mk = m[keep]
        return cls(ds.features.values[keep], y[keep], mk / mk.sum())


# ============================================================
# File formats
# ============================================================


def save_feature_matrix(matrix: FeatureMatrix, path, format: str = "binary") -> None:
    """Write a matrix in the binary (magic + u32 dims + f32 payload) or CSV format."""
    if format == "binary":
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<II", matrix.rows, matrix.cols))
            f.write(matrix.values.astype("<f4").tobytes(order="C"))
    elif format == "csv":
        with open(path, "w", encoding="utf-8") as f:
            for row in matrix.values:
                f.write(",".join(f"{x:.17g}" for x in row))
                f.write("\n")
    else:
        raise ValueError(f"unknown format {format!r}")


def load_feature_matrix(path, format: str = "binary") -> FeatureMatrix:
    """Read a matrix written by :func:`save_feature_matrix`; validates finiteness."""
    if format == "binary":
        with open(path, "rb") as f:
            raw = f.read()
        if len(raw) < 12 or raw[:4] != _MAGIC:
            raise MalformedFile(f"{path}: missing {_MAGIC!r} magic header")
        rows, cols = struct.unpack("<II", raw[4:12])
        expected = 12 + 4 * rows * cols
        if rows < 1 or cols < 1 or len(raw) != expected:
            raise MalformedFile(
                f"{path}: header says {rows}x{cols} but file has {len(raw)} bytes, expected {expected}"
            )
        values = np.frombuffer(raw, dtype="<f4", offset=12).astype(np.float64).reshape(rows, cols)
    elif format == "csv":
        rows_out: list[list[float]] = []
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rows_out.append([float(tok) for tok in line.split(",")])
                except ValueError as e:
                    raise MalformedFile(f"{path}:{lineno}: {e}") from e
                if len(rows_out[-1]) != len(rows_out[0]):
                    raise MalformedFile(
                        f"{path}:{lineno}: row has {len(rows_out[-1])} fields, expected {len(rows_out[0])}"
                    )
        if not rows_out:
            raise MalformedFile(f"{path}: no data rows")
        values = np.array(rows_out, dtype=np.float64)
    else:
        raise ValueError(f"unknown format {format!r}")
    return FeatureMatrix(values)


def densify_labels(raw: np.ndarray) -> tuple[np.ndarray, dict[int, int]]:
    """Re-index labels to 0..k-1 in first-appearance order.

    Returns the dense labels and the original-id -> dense-id mapping.
    Idempotent on already-dense labels.
    """
    raw = _check_labels(raw)
    mapping: dict[int, int] = {}
    dense = np.empty_like(raw)
    for i, v in enumerate(raw.tolist()):
        if v not in mapping:
            mapping[v] = len(mapping)
        dense[i] = mapping[v]
    return dense, mapping


def save_labels(labels: np.ndarray, path) -> None:
    """Write one nonnegative integer label per line."""
    y = _check_labels(labels)
    if y.ndim != 1 or y.size == 0:
        raise DimensionMismatch("labels must be a non-empty vector")
    if y.min() < 0:
        raise MalformedFile(f"negative label {y.min()}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(str(v) for v in y.tolist()))
        f.write("\n")


def load_labels(path) -> tuple[np.ndarray, dict[int, int]]:
    """Read one nonnegative integer per line; densify to 0..k-1.

    Returns (dense labels, original-id -> dense-id mapping).
    """
    raw: list[int] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                v = int(line)
            except ValueError as e:
                raise MalformedFile(f"{path}:{lineno}: not an integer: {line!r}") from e
            if not 0 <= v < 2**63:
                raise MalformedFile(f"{path}:{lineno}: label {v} is not in [0, 2^63)")
            raw.append(v)
    if not raw:
        raise EmptyFile(f"{path}: no labels")
    return densify_labels(np.array(raw, dtype=np.int64))


def clamp_weights(w: np.ndarray) -> np.ndarray:
    """Zero out weights at or below ``WEIGHT_CLAMP`` and renormalize to sum 1."""
    w = np.where(np.asarray(w, dtype=np.float64) > WEIGHT_CLAMP, w, 0.0)
    total = w.sum()
    if total <= 0:
        raise MalformedFile("all class weights clamped to zero")
    return w / total


def save_class_weights(w: ClassWeights, mapping: dict[int, int], path) -> None:
    """Write weights as JSON keyed by original class ids.

    Weights below the clamp threshold are written as 0.0 and the rest
    renormalized; ``support`` lists original ids that kept positive weight.
    """
    inverse = {dense: orig for orig, dense in mapping.items()}
    if len(inverse) != w.k:
        raise DimensionMismatch(f"mapping covers {len(inverse)} classes, weights have {w.k}")
    cleaned = clamp_weights(w.weights)
    doc = {
        "k": w.k,
        "weights": {str(inverse[i]): float(cleaned[i]) for i in range(w.k)},
        "support": sorted(int(inverse[i]) for i in np.flatnonzero(cleaned > 0)),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def load_class_weights(path) -> dict[int, float]:
    """Read a weights JSON document back as original-id -> weight."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            weights = {int(cid): float(val) for cid, val in json.load(f)["weights"].items()}
            _check_finite(np.array(list(weights.values())), "weights")
        except (AttributeError, KeyError, TypeError, ValueError, NonFiniteValue) as e:
            raise MalformedFile(f"{path}: not a weights document: {e}") from e
    return weights


def load_vector_csv(path) -> np.ndarray:
    """Read a single numeric vector: one value per line or one comma-separated row."""
    with open(path, "r", encoding="utf-8") as f:
        tokens = [tok for line in f for tok in line.strip().split(",") if tok]
    if not tokens:
        raise EmptyFile(f"{path}: no values")
    try:
        vec = np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError as e:
        raise MalformedFile(f"{path}: {e}") from e
    _check_finite(vec, "vector")
    return vec
