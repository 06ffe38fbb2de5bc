"""Pairwise Euclidean distances: the one kernel behind every transport cost."""

from __future__ import annotations

import numpy as np

from .data import FeatureMatrix
from .errors import DimensionMismatch


def pairwise_distances(source: FeatureMatrix, target: FeatureMatrix) -> np.ndarray:
    """n x m matrix of l2 distances between source rows and target rows.

    Both sets are first centred on their pooled mean, which leaves every
    distance unchanged. The Gram expansion ||a||^2 + ||b||^2 - 2 a.b then
    cancels at the scale of the spread, not of the offset from the origin
    (Higham 2002, §1.7): uncentred, its error grows with the offset. Negative
    radicands are clamped to zero. Entries below 1e-10 of the larger squared norm
    (no absolute floor, so 2^k X, 2^k Y give exactly 2^k D) are recomputed from
    exact differences, because coincident points still cancel.
    """
    if source.cols != target.cols:
        raise DimensionMismatch(
            f"source has {source.cols} feature dims, target has {target.cols}"
        )
    x, y = source.values, target.values
    centre = (x.sum(axis=0) + y.sum(axis=0)) / (x.shape[0] + y.shape[0])
    a, b = x - centre, y - centre
    na, nb = np.sum(a * a, axis=1)[:, None], np.sum(b * b, axis=1)[None, :]
    sq = na + nb - 2.0 * (a @ b.T)
    suspect = sq < 1e-10 * np.maximum(na, nb)
    if suspect.any():
        rows, cols = np.nonzero(suspect)
        diff = x[rows] - y[cols]
        sq[rows, cols] = np.sum(diff * diff, axis=1)
    return np.sqrt(np.maximum(sq, 0.0))
