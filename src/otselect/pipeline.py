"""Pre-train / fine-tune pipeline on fixed embeddings, with baselines.

The downstream model is a single softmax head (a k x p weight matrix, no
bias) trained by seeded mini-batch gradient descent on a weighted
cross-entropy. Features are never modified: fine-tuning trains a fresh head
on target data, initialized from the pre-trained head wherever class ids
are shared and from zeros elsewhere.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .classlp import (ClassWeightSolution, solve_class_weights,
                      weights_to_sample_probabilities)
from .data import (ClassWeights, FeatureMatrix, LabeledDataset, _check_class_ids, _check_count,
                   _check_labels, _check_probs, _check_simplex, _freeze, densify_labels)
from .distance import pairwise_distances
from .errors import DimensionMismatch, MalformedFile, UnknownLabel
from .ot import OtProblem, solve_exact_ot
from .sinkhorn import SinkhornConfig, _logsumexp, sinkhorn_class_weights

PIPELINE_METHODS = ("wass", "wass-sinkhorn", "all", "rnd", "mn")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    l2_penalty: float = 0.0
    early_stop_patience: int = 5

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        _check_count("epochs", self.epochs, 1)
        _check_count("batch_size", self.batch_size, 1)
        _check_count("seed", self.seed, 0)
        _check_count("early_stop_patience", self.early_stop_patience, 0)
        if not 0 <= self.l2_penalty < np.inf:
            raise ValueError(f"l2_penalty must be finite and >= 0, got {self.l2_penalty}")


@dataclass(frozen=True)
class SoftmaxHead:
    """Linear logits over a fixed class list; probabilities via row softmax."""

    weight_matrix: np.ndarray
    class_list: np.ndarray

    def __post_init__(self):
        V = _freeze(self.weight_matrix)
        if V.ndim != 2:
            raise DimensionMismatch("weight matrix rows must match the class list")
        cls = _freeze(_check_class_ids(self.class_list, V.shape[0], "class list"), np.int64)
        if not np.isfinite(V).all():
            raise MalformedFile("head weights must be finite")
        object.__setattr__(self, "weight_matrix", V)
        object.__setattr__(self, "class_list", cls)

    @property
    def n_classes(self) -> int:
        return self.weight_matrix.shape[0]

    def predict_logits(self, features: np.ndarray) -> np.ndarray:
        Z = np.asarray(features, dtype=np.float64)
        if Z.ndim != 2 or Z.shape[1] != self.weight_matrix.shape[1]:
            raise DimensionMismatch(f"features of shape {Z.shape} do not fit a head over "
                                    f"{self.weight_matrix.shape[1]} feature columns")
        return Z @ self.weight_matrix.T

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return softmax(self.predict_logits(features))

    def class_position(self, class_ids: np.ndarray) -> np.ndarray:
        """Indices of the given external ids within this head's output axis."""
        lookup = {c: i for i, c in enumerate(self.class_list.tolist())}
        ids = np.atleast_1d(_check_labels(class_ids, "class_ids")).tolist()
        try:
            return np.array([lookup[c] for c in ids], dtype=np.int64)
        except KeyError as e:
            raise UnknownLabel(f"label {e.args[0]} not among head classes") from e


@dataclass(frozen=True)
class EvalReport:
    zero_one_error: float
    cross_entropy: float
    per_class_accuracy: np.ndarray
    n_eval: int

    @property
    def accuracy(self) -> float:
        return 1.0 - self.zero_one_error


def _softmax(logits: np.ndarray, log: bool = False) -> np.ndarray:
    """Row softmax of a logit matrix (log-softmax with ``log``)."""
    log_p = logits - _logsumexp(logits, axis=1)[:, None]
    return log_p if log else np.exp(log_p)


def softmax(logits: np.ndarray) -> np.ndarray:
    return _softmax(logits)


def weighted_cross_entropy(V: np.ndarray, features: np.ndarray, label_idx: np.ndarray,
                           sample_probs: np.ndarray, l2_penalty: float = 0.0
                           ) -> tuple[float, np.ndarray]:
    """Loss sum_j p_j * CE_j + (l2/2)||V||_F^2 and its exact gradient in V."""
    log_p = _softmax(features @ V.T, log=True)
    loss = _ce_loss(V, log_p, label_idx, sample_probs, l2_penalty)
    return loss, _ce_grad(V, features, np.exp(log_p), label_idx, sample_probs, l2_penalty)


def _ce_loss(V: np.ndarray, log_p: np.ndarray, label_idx: np.ndarray,
             sample_probs: np.ndarray, l2_penalty: float) -> float:
    """The loss half of :func:`weighted_cross_entropy`, from the log-softmax rows."""
    rows = np.arange(label_idx.size)
    return -float(sample_probs @ log_p[rows, label_idx]) + 0.5 * l2_penalty * float(np.sum(V * V))


def _ce_grad(V: np.ndarray, features: np.ndarray, delta: np.ndarray, label_idx: np.ndarray,
             sample_probs: np.ndarray, l2_penalty: float) -> np.ndarray:
    """The gradient half of :func:`weighted_cross_entropy`; ``delta`` holds the
    softmax rows and is overwritten."""
    delta[np.arange(label_idx.size), label_idx] -= 1.0
    return (delta * sample_probs[:, None]).T @ features + l2_penalty * V


def train_head(features: FeatureMatrix, labels: np.ndarray, sample_probs: np.ndarray,
               cfg: TrainConfig, class_list: np.ndarray | None = None) -> SoftmaxHead:
    """Train a softmax head from zeros on importance-weighted cross-entropy.

    ``labels`` are positions into ``class_list`` (identity list by default).
    Deterministic given the config seed.
    """
    return _train(features, labels, sample_probs, cfg, class_list, base=None)


def finetune_head(features: FeatureMatrix, labels: np.ndarray, base: SoftmaxHead | None,
                  cfg: TrainConfig, class_list: np.ndarray | None = None) -> SoftmaxHead:
    """Train a fresh head on target data; features stay frozen.

    Rows are initialized from ``base`` for class ids the two heads share and
    from zeros otherwise, then trained with uniform per-sample weight.
    """
    uniform = np.full(features.rows, 1.0 / features.rows)
    return _train(features, labels, uniform, cfg, class_list, base)


def _train(features: FeatureMatrix, labels: np.ndarray, sample_probs: np.ndarray,
           cfg: TrainConfig, class_list: np.ndarray | None,
           base: SoftmaxHead | None) -> SoftmaxHead:
    """Mini-batch GD on the weighted cross-entropy; returns the best-loss head.

    The head starts from ``base``'s rows for shared class ids and from zeros
    elsewhere. The per-batch l2 term is scaled by the batch fraction so one
    epoch's updates sum to one pass of the full objective's gradient.
    Training stops early when the full loss has not improved for
    `early_stop_patience` consecutive epochs (patience 0 disables the check).
    Each epoch gathers its shuffled rows once; a batch step takes a row slice
    and computes only the gradient, and the epoch check only the full loss.
    Both use the halves of :func:`weighted_cross_entropy`, so every head is
    bitwise the one its full per-batch calls would give.
    """
    y = _check_labels(labels)
    if y.shape != (features.rows,):
        raise DimensionMismatch("labels must align with feature rows")
    cls = (np.arange(int(y.max()) + 1) if class_list is None  # refused before the first epoch
           else _check_class_ids(class_list, np.size(class_list), "class list"))
    k_out = cls.size
    if y.min() < 0 or y.max() >= k_out:
        raise DimensionMismatch(f"labels must lie in [0, {k_out})")
    V = np.zeros((k_out, features.cols))
    if base is not None:
        if base.weight_matrix.shape[1] != features.cols:
            raise DimensionMismatch("base head feature dimension does not match")
        shared = np.isin(cls, base.class_list)
        V[shared] = base.weight_matrix[base.class_position(cls[shared])]
    p = _check_simplex(sample_probs, features.rows, "sample_probs")

    Z, n, size = features.values, y.size, cfg.batch_size
    rng = np.random.default_rng(cfg.seed)
    best_loss = np.inf
    best_V = V.copy()
    stall = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        Zo, yo, po = Z[order], y[order], p[order]
        for start in range(0, n, size):
            Zb, yb, pb = Zo[start:start + size], yo[start:start + size], po[start:start + size]
            grad = _ce_grad(V, Zb, _softmax(Zb @ V.T), yb, pb, cfg.l2_penalty * yb.size / n)
            V -= cfg.learning_rate * grad
        loss = _ce_loss(V, _softmax(Z @ V.T, log=True), y, p, cfg.l2_penalty)
        if loss < best_loss - 1e-12:
            best_loss = loss
            best_V = V.copy()
            stall = 0
        else:
            stall += 1
            if cfg.early_stop_patience > 0 and stall > cfg.early_stop_patience:
                break
    return SoftmaxHead(best_V, cls)


def evaluate(head: SoftmaxHead, features: FeatureMatrix, labels: np.ndarray) -> EvalReport:
    """Exact empirical 0-1 error and mean cross-entropy under argmax prediction.

    ``labels`` are external class ids and must all be known to the head;
    argmax ties resolve toward the smallest class index.
    """
    y = _check_labels(labels)
    if y.shape != (features.rows,):
        raise DimensionMismatch("labels must be a vector aligned with feature rows")
    pos = head.class_position(y)
    logits = head.predict_logits(features.values)
    pred = np.argmax(logits, axis=1)
    zero_one = float(np.mean(pred != pos))

    ce = float(np.mean(-_softmax(logits, log=True)[np.arange(pos.size), pos]))

    hits = np.bincount(pos, weights=pred == pos, minlength=head.n_classes)
    per_class = hits / np.maximum(np.bincount(pos, minlength=head.n_classes), 1)
    return EvalReport(zero_one, ce, per_class, int(pos.size))


def baseline_weights(method: str, source: LabeledDataset, target: FeatureMatrix,
                     seed: int, mn_top: int = 3) -> ClassWeights:
    """ALL: uniform. RND: uniform over a seeded random nonempty class subset.
    MN: uniform over the ``mn_top`` classes whose mean embedding is closest
    to the target's overall mean (all classes when k < mn_top)."""
    _check_count("mn_top", mn_top, 1)
    k = source.k
    method = method.lower()
    if method == "all":
        return ClassWeights(np.full(k, 1.0 / k))
    if method == "rnd":
        rng = np.random.default_rng(seed)
        mask = np.zeros(k, dtype=bool)
        while not mask.any():
            mask = rng.integers(0, 2, size=k).astype(bool)
        w = mask / mask.sum()
        return ClassWeights(w)
    if method == "mn":
        means = np.stack([
            source.features.values[source.labels == i].mean(axis=0) for i in range(k)
        ])
        target_mean = target.values.mean(axis=0)
        dists = np.linalg.norm(means - target_mean, axis=1)
        chosen = np.argsort(dists, kind="stable")[: min(mn_top, k)]
        w = np.zeros(k)
        w[chosen] = 1.0 / chosen.size
        return ClassWeights(w)
    raise ValueError(f"unknown baseline method {method!r}")


def resample_fixed_budget(dataset: LabeledDataset, sample_probs: np.ndarray,
                          budget: int, seed: int) -> tuple[LabeledDataset, np.ndarray]:
    """Draw ``budget`` samples i.i.d. with replacement by the given probabilities.

    Classes that receive no draws disappear, so labels are re-densified;
    the second return value maps each new dense id back to the original one.
    """
    _check_count("budget", budget, 1)
    p = _check_probs(sample_probs, dataset.n, "sample_probs")
    rng = np.random.default_rng(seed)
    idx = rng.choice(dataset.n, size=budget, replace=True, p=p / p.sum())
    dense, remap = densify_labels(dataset.labels[idx])
    ds = LabeledDataset(FeatureMatrix(dataset.features.values[idx]), dense)
    return ds, np.array(list(remap), dtype=np.int64)


# ============================================================
# Orchestration
# ============================================================


@dataclass(frozen=True)
class PipelineResult:
    method: str
    weights: ClassWeights
    support_size: int
    w1_objective: float
    report: EvalReport
    pretrained: SoftmaxHead
    finetuned: SoftmaxHead
    warnings: tuple[str, ...] = ()


def sort_by_class(dataset: LabeledDataset) -> LabeledDataset:
    """Stable reorder so each class occupies one contiguous row block."""
    order = np.argsort(dataset.labels, kind="stable")
    return LabeledDataset(FeatureMatrix(dataset.features.values[order]), dataset.labels[order])


def select_weights(method: str, source_sorted: LabeledDataset, target: FeatureMatrix,
                   seed: int, sinkhorn_cfg: SinkhornConfig | None = None
                   ) -> ClassWeightSolution:
    """Class weights for any method, with the plan and transport cost they achieve.

    ``wass`` and ``wass-sinkhorn`` return their solver's solution. For the
    baselines the plan is an exact fixed-marginal solve at the chosen
    weights, so all methods report a comparable objective.
    """
    D = pairwise_distances(source_sorted.features, target)
    counts = source_sorted.class_counts
    if method == "wass":
        return solve_class_weights(D, counts)
    if method == "wass-sinkhorn":
        return sinkhorn_class_weights(D, counts, sinkhorn_cfg)
    w = baseline_weights(method, source_sorted, target, seed)
    plan = solve_exact_ot(OtProblem(D, np.repeat(w.weights / counts, counts),
                                    np.full(target.rows, 1.0 / target.rows)))
    return ClassWeightSolution(w, plan, plan.objective, int(w.support().size))


_Trained = namedtuple("_Trained", "source_sorted sample_probs solution source_ids target_ids "
                     "pretrained finetuned")


def _select_and_train(source: LabeledDataset, target_train: LabeledDataset, method: str,
                      cfg: TrainConfig | None, *, budget: int = 0,
                      source_class_ids: np.ndarray | None = None,
                      target_class_ids: np.ndarray | None = None,
                      union: bool = False, finetune: bool = True) -> _Trained:
    """Select -> pre-train -> fine-tune, for ``run_pipeline`` and the bound report.

    With ``union`` both heads score the source ids followed by the target ids
    not among them, instead of each scoring its own data's ids. Without
    ``finetune`` the pre-trained head stands in for the fine-tuned one.
    """
    _check_count("budget", budget, 0)  # before the selection, which may take long
    cfg = cfg or TrainConfig()
    src_ids = (np.arange(source.k) if source_class_ids is None
               else _check_class_ids(source_class_ids, source.k, "source_class_ids"))
    tgt_ids = (source.k + np.arange(target_train.k) if target_class_ids is None
               else _check_class_ids(target_class_ids, target_train.k, "target_class_ids"))
    pre_ids, fine_ids, tgt_labels = src_ids, tgt_ids, target_train.labels
    if union:  # the source ids come first, so source labels keep their positions
        known = set(src_ids.tolist())
        new = np.array([c for c in tgt_ids.tolist() if c not in known], dtype=np.int64)
        pre_ids = fine_ids = np.concatenate([src_ids, new])
        at = {c: i for i, c in enumerate(pre_ids.tolist())}
        tgt_labels = np.array([at[c] for c in tgt_ids.tolist()], dtype=np.int64)[tgt_labels]

    source_sorted = sort_by_class(source)
    sol = select_weights(method, source_sorted, target_train.features, cfg.seed)
    probs = weights_to_sample_probabilities(sol.weights, source_sorted.labels)
    pre, pre_probs = source_sorted, probs
    if budget > 0:
        pre, kept = resample_fixed_budget(source_sorted, probs, budget, seed=cfg.seed * 4 + 3)
        pre_probs, pre_ids = np.full(pre.n, 1.0 / pre.n), src_ids[kept]
    pretrained = train_head(pre.features, pre.labels, pre_probs,
                            replace(cfg, seed=cfg.seed * 4 + 1), class_list=pre_ids)
    finetuned = (finetune_head(target_train.features, tgt_labels, pretrained,
                               replace(cfg, seed=cfg.seed * 4 + 2), class_list=fine_ids)
                 if finetune else pretrained)
    return _Trained(source_sorted, probs, sol, src_ids, tgt_ids, pretrained, finetuned)


def run_pipeline(source: LabeledDataset, target_train: LabeledDataset,
                 target_test: LabeledDataset, *, method: str = "wass",
                 cfg: TrainConfig | None = None, budget: int = 0,
                 source_class_ids: np.ndarray | None = None,
                 target_class_ids: np.ndarray | None = None,
                 test_class_ids: np.ndarray | None = None) -> PipelineResult:
    """Select source classes, pre-train on them, fine-tune on target, evaluate.

    Class id arrays map each dataset's dense labels to external ids; the
    default treats target classes as disjoint from source classes, and the
    test split's ids default to the train split's. With a
    positive ``budget`` the source set is resampled to that many rows before
    pre-training; otherwise importance weights enter the loss directly.
    Each phase derives its own seed from the config seed. ``wass-sinkhorn``
    solves with the default :class:`SinkhornConfig` and ``mn`` keeps the
    three classes :func:`baseline_weights` ranks nearest by default; other
    settings go through :func:`select_weights` or ``baseline_weights``.
    """
    if method not in PIPELINE_METHODS:
        raise ValueError(f"method must be one of {PIPELINE_METHODS}, got {method!r}")
    if test_class_ids is not None:
        test_class_ids = _check_class_ids(test_class_ids, target_test.k, "test_class_ids")
    t = _select_and_train(source, target_train, method, cfg, budget=budget,
                          source_class_ids=source_class_ids, target_class_ids=target_class_ids)
    test_ids = t.target_ids if test_class_ids is None else test_class_ids
    report = evaluate(t.finetuned, target_test.features, test_ids[target_test.labels])
    sol = t.solution
    return PipelineResult(method, sol.weights, sol.support_size, sol.objective, report,
                          t.pretrained, t.finetuned, (sol.warning,) if sol.warning else ())


# ============================================================
# Head serialization
# ============================================================


def save_head(head: SoftmaxHead, path) -> None:
    doc = {"classes": head.class_list.tolist(), "matrix": head.weight_matrix.tolist()}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
        f.write("\n")


def load_head(path) -> SoftmaxHead:
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
            return SoftmaxHead(doc["matrix"], doc["classes"])
        except (KeyError, TypeError, ValueError, DimensionMismatch, MalformedFile) as e:
            raise MalformedFile(f"{path}: not a head document: {e}") from e
