"""Head training, evaluation, baselines, resampling, and the full pipeline."""

import copy
import re

import numpy as np
import pytest

import otselect.pipeline as pipeline_module
from otselect import (
    ClassWeights,
    FeatureMatrix,
    LabeledDataset,
    SinkhornConfig,
    SoftmaxHead,
    TrainConfig,
    baseline_weights,
    end_to_end_bound_report,
    evaluate,
    finetune_head,
    load_head,
    resample_fixed_budget,
    run_pipeline,
    save_head,
    train_head,
)
from otselect.errors import (
    DegenerateInput,
    DimensionMismatch,
    MalformedFile,
    UnknownLabel,
)
from otselect.pipeline import (
    PIPELINE_METHODS,
    select_weights,
    softmax,
    sort_by_class,
    weighted_cross_entropy,
)
from otselect.synth import build_scenario

from conftest import random_dataset, rng


# ---------------------------------------------------------------- gradient


def test_gradient_matches_central_finite_differences():
    for seed in range(10):
        r = rng(seed)
        k, d, n = r.integers(2, 5), r.integers(1, 4), r.integers(3, 9)
        V = r.normal(size=(k, d))
        Z = r.normal(size=(n, d))
        y = r.integers(0, k, size=n)
        p = r.dirichlet(np.ones(n))
        l2 = float(r.choice([0.0, 0.01]))
        _, grad = weighted_cross_entropy(V, Z, y, p, l2_penalty=l2)
        h = 1e-6
        fd = np.zeros_like(V)
        for a in range(k):
            for b in range(d):
                Vp, Vm = V.copy(), V.copy()
                Vp[a, b] += h
                Vm[a, b] -= h
                lp, _ = weighted_cross_entropy(Vp, Z, y, p, l2_penalty=l2)
                lm, _ = weighted_cross_entropy(Vm, Z, y, p, l2_penalty=l2)
                fd[a, b] = (lp - lm) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)


def test_softmax_is_stable_for_huge_logits():
    probs = softmax(np.array([[1e4, 0.0, -1e4], [-1e4, -1e4, -1e4]]))
    assert np.all(np.isfinite(probs))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(probs[1], 1 / 3, atol=1e-12)


# ---------------------------------------------------------------- training


def test_training_reduces_loss_and_is_deterministic():
    ds = random_dataset(0, [12, 12, 12])
    p = np.full(ds.n, 1 / ds.n)
    cfg = TrainConfig(epochs=40, seed=3)
    head = train_head(ds.features, ds.labels, p, cfg)
    loss_trained, _ = weighted_cross_entropy(head.weight_matrix, ds.features.values, ds.labels, p)
    loss_zero, _ = weighted_cross_entropy(np.zeros_like(head.weight_matrix),
                                          ds.features.values, ds.labels, p)
    assert loss_trained < loss_zero
    again = train_head(ds.features, ds.labels, p, cfg)
    np.testing.assert_array_equal(head.weight_matrix, again.weight_matrix)


def test_training_ignores_zero_probability_rows():
    ds = random_dataset(1, [8, 8])
    p = np.zeros(ds.n)
    p[: 8] = 1 / 8  # all mass on class 0
    head = train_head(ds.features, ds.labels, p, TrainConfig(epochs=30, seed=0))
    rep = evaluate(head, ds.features, ds.labels)
    assert rep.per_class_accuracy[0] == 1.0


def test_zero_probability_vector_rejected():
    ds = random_dataset(2, [5, 5])
    with pytest.raises(DegenerateInput):
        train_head(ds.features, ds.labels, np.zeros(ds.n), TrainConfig())


def test_unnormalized_probabilities_rejected():
    ds = random_dataset(2, [5, 5])
    with pytest.raises(MalformedFile):
        train_head(ds.features, ds.labels, np.full(ds.n, 0.2), TrainConfig())


def test_custom_class_list_keeps_room_for_absent_classes():
    ds = random_dataset(3, [6, 6])
    p = np.full(ds.n, 1 / ds.n)
    head = train_head(ds.features, ds.labels, p, TrainConfig(epochs=5, seed=0),
                      class_list=np.array([4, 7, 9]))
    assert head.weight_matrix.shape[0] == 3
    np.testing.assert_array_equal(head.class_list, [4, 7, 9])
    # the absent class never wins: its logit only ever receives downward pull
    probs = head.predict_proba(ds.features.values)
    assert probs[:, 2].mean() < 1 / 3


def test_l2_penalty_shrinks_the_solution():
    ds = random_dataset(4, [10, 10])
    p = np.full(ds.n, 1 / ds.n)
    plain = train_head(ds.features, ds.labels, p, TrainConfig(epochs=60, seed=1))
    ridged = train_head(ds.features, ds.labels, p,
                        TrainConfig(epochs=60, seed=1, l2_penalty=5.0))
    assert np.linalg.norm(ridged.weight_matrix) < np.linalg.norm(plain.weight_matrix)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    # epochs and batch_size feed range(): a float must fail here, not in training
    for field in ("epochs", "batch_size"):
        for bad in (2.5, 3.0):
            with pytest.raises(ValueError, match=field):
                TrainConfig(**{field: bad})
    assert TrainConfig(epochs=np.int64(3), batch_size=np.int32(8)).epochs == 3


# -------------------------------------------------------------- finetuning


def test_finetune_copies_base_rows_for_shared_ids_only():
    base = SoftmaxHead(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([10, 20]))
    ds = random_dataset(5, [6, 6])
    # new space shares id 20 and adds id 30
    head = finetune_head(ds.features, ds.labels, base,
                         TrainConfig(epochs=1, learning_rate=1e-12, seed=0),
                         class_list=np.array([20, 30]))
    np.testing.assert_allclose(head.weight_matrix[0], [3.0, 4.0], atol=1e-9)
    np.testing.assert_allclose(head.weight_matrix[1], 0.0, atol=1e-9)


def test_finetune_without_base_is_fresh_training():
    ds = random_dataset(6, [8, 8])
    cfg = TrainConfig(epochs=20, seed=2)
    fresh = finetune_head(ds.features, ds.labels, None, cfg)
    uniform = np.full(ds.n, 1 / ds.n)
    trained = train_head(ds.features, ds.labels, uniform, cfg)
    np.testing.assert_array_equal(fresh.weight_matrix, trained.weight_matrix)


@pytest.mark.parametrize("fit", [train_head, finetune_head])
def test_training_rejects_labels_and_base_heads_that_do_not_fit(fit):
    ds = random_dataset(7, [5, 5])

    def run(labels, class_list=None, base=None):
        third = np.full(ds.n, 1 / ds.n) if fit is train_head else base
        return fit(ds.features, labels, third, TrainConfig(epochs=1), class_list=class_list)

    assert run(ds.labels).n_classes == 2
    with pytest.raises(DimensionMismatch, match="align"):
        run(ds.labels[:-1])
    with pytest.raises(DimensionMismatch, match=r"\[0, 1\)"):
        run(ds.labels, class_list=np.array([4]))
    with pytest.raises(DimensionMismatch, match=r"\[0, 2\)"):
        run(ds.labels - 1, class_list=np.array([4, 7]))
    if fit is finetune_head:
        wide = SoftmaxHead(np.zeros((2, ds.features.cols + 1)), np.arange(2))
        with pytest.raises(DimensionMismatch, match="feature dimension"):
            run(ds.labels, base=wide)


def test_a_bad_class_list_is_refused_before_the_first_epoch():
    ds = random_dataset(7, [5, 5])
    p = np.full(ds.n, 1 / ds.n)
    endless = TrainConfig(epochs=10**9, early_stop_patience=0)
    with pytest.raises(MalformedFile, match="duplicate ids"):
        train_head(ds.features, ds.labels, p, endless, class_list=np.array([3, 3]))
    with pytest.raises(DimensionMismatch, match="class list"):
        finetune_head(ds.features, ds.labels, None, endless, class_list=np.array([[3], [4]]))


# ------------------------------------------------------- bitwise training pin


def reference_train(features, labels, sample_probs, cfg, class_list=None, base=None):
    """The training loop with a full ``weighted_cross_entropy`` call per batch
    and per epoch check; returns the best weights and the epochs run."""
    y = np.asarray(labels, dtype=np.int64)
    k_out = int(y.max()) + 1 if class_list is None else len(class_list)
    cls = np.arange(k_out) if class_list is None else np.asarray(class_list, dtype=np.int64)
    V = np.zeros((k_out, features.cols))
    if base is not None:
        shared = np.isin(cls, base.class_list)
        V[shared] = base.weight_matrix[base.class_position(cls[shared])]
    p = np.asarray(sample_probs, dtype=np.float64)

    Z, n = features.values, y.size
    rng = np.random.default_rng(cfg.seed)
    best_loss = np.inf
    best_V = V.copy()
    stall = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            _, grad = weighted_cross_entropy(
                V, Z[idx], y[idx], p[idx], cfg.l2_penalty * idx.size / n
            )
            V -= cfg.learning_rate * grad
        loss, _ = weighted_cross_entropy(V, Z, y, p, cfg.l2_penalty)
        if loss < best_loss - 1e-12:
            best_loss = loss
            best_V = V.copy()
            stall = 0
        else:
            stall += 1
            if cfg.early_stop_patience > 0 and stall > cfg.early_stop_patience:
                break
    return best_V, epoch + 1


SHARED_BASE = SoftmaxHead(rng(12).normal(size=(3, 4)), np.array([7, 9, 20]))
PINS = {  # (finetune?, config, zero-probability rows?, class list, base)
    "l2_0_ragged_batches": (False, TrainConfig(epochs=40, batch_size=10, seed=1), False,
                            None, None),
    "l2_half_ragged_batches": (False, TrainConfig(epochs=40, batch_size=10, seed=2,
                                                  l2_penalty=0.5), False, None, None),
    "batch_above_n_no_patience": (False, TrainConfig(epochs=30, batch_size=64,
                                                     early_stop_patience=0), False, None, None),
    "stops_early": (False, TrainConfig(epochs=500, batch_size=8), False, None, None),
    "zero_probability_rows": (False, TrainConfig(epochs=40, batch_size=6, seed=3), True,
                              None, None),
    "absent_class": (False, TrainConfig(epochs=40, seed=4), False, [4, 7, 9, 11], None),
    "finetune_shared_base": (True, TrainConfig(epochs=40, batch_size=10, seed=5, l2_penalty=0.5),
                             False, [4, 7, 9, 11], SHARED_BASE),
    "finetune_no_base": (True, TrainConfig(epochs=40, batch_size=64, seed=6), False, None, None),
}


@pytest.mark.parametrize("name", PINS)
def test_training_is_bitwise_the_full_objective_loop(name):
    finetune, cfg, zero_rows, class_list, base = PINS[name]
    r = rng(11)
    Z, y = FeatureMatrix(r.normal(size=(37, 4))), r.integers(0, 3, size=37)
    p = np.full(37, 1 / 37)
    if zero_rows:
        p = r.dirichlet(np.ones(37)) * (np.arange(37) % 3 != 0)
        p /= p.sum()
    cls = None if class_list is None else np.array(class_list)
    head = (finetune_head(Z, y, base, cfg, class_list=cls) if finetune
            else train_head(Z, y, p, cfg, class_list=cls))
    want, epochs_run = reference_train(Z, y, p, cfg, cls, base)
    np.testing.assert_array_equal(head.weight_matrix, want)
    if name in ("stops_early", "batch_above_n_no_patience"):
        assert (epochs_run < cfg.epochs) == (name == "stops_early")


# -------------------------------------------------------------- evaluation


def test_evaluate_hand_example():
    head = SoftmaxHead(np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([5, 9]))
    feats = FeatureMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    rep = evaluate(head, feats, np.array([5, 9, 9]))  # last one misclassified
    assert rep.n_eval == 3
    assert abs(rep.zero_one_error - 1 / 3) < 1e-12
    assert rep.accuracy == pytest.approx(2 / 3)
    # per-class accuracies follow head class positions: id 5 first, id 9 second
    np.testing.assert_allclose(rep.per_class_accuracy, [1.0, 0.5])


def test_evaluate_breaks_argmax_ties_towards_first_class():
    head = SoftmaxHead(np.zeros((2, 2)), np.array([0, 1]))
    feats = FeatureMatrix(np.ones((4, 2)))
    rep = evaluate(head, feats, np.array([0, 0, 1, 1]))
    assert rep.per_class_accuracy[0] == 1.0
    assert rep.per_class_accuracy[1] == 0.0


def test_evaluate_rejects_labels_outside_the_head():
    head = SoftmaxHead(np.eye(2), np.array([5, 9]))
    with pytest.raises(UnknownLabel):
        evaluate(head, FeatureMatrix(np.eye(2)), np.array([5, 7]))


def test_duplicate_class_ids_rejected():
    with pytest.raises(MalformedFile):
        SoftmaxHead(np.eye(2), np.array([3, 3]))


# --------------------------------------------------------------- baselines


def test_uniform_baseline():
    ds = random_dataset(7, [4, 4, 4])
    w = baseline_weights("all", ds, FeatureMatrix(np.zeros((3, 2))), seed=0)
    np.testing.assert_allclose(w.weights, 1 / 3)


def test_random_baseline_is_seeded_and_nonempty():
    ds = random_dataset(8, [4, 4, 4, 4])
    tgt = FeatureMatrix(np.zeros((3, 2)))
    w1 = baseline_weights("rnd", ds, tgt, seed=5)
    w2 = baseline_weights("rnd", ds, tgt, seed=5)
    np.testing.assert_array_equal(w1.weights, w2.weights)
    assert w1.weights.sum() == pytest.approx(1.0)
    assert (w1.weights > 0).any()
    seen = {tuple(baseline_weights("rnd", ds, tgt, seed=s).weights) for s in range(12)}
    assert len(seen) > 1


def test_mean_distance_baseline_picks_the_closest_class_means():
    # class means sit at x = 0, 1, 5, 9; target mean at the origin
    feats = np.zeros((8, 2))
    feats[:, 0] = [0, 0, 1, 1, 5, 5, 9, 9]
    ds = LabeledDataset(FeatureMatrix(feats), np.array([0, 0, 1, 1, 2, 2, 3, 3]))
    w = baseline_weights("mn", ds, FeatureMatrix(np.zeros((4, 2))), seed=0, mn_top=2)
    np.testing.assert_allclose(w.weights, [0.5, 0.5, 0.0, 0.0])


def test_unknown_method_rejected():
    ds = random_dataset(9, [3, 3])
    with pytest.raises(ValueError):
        baseline_weights("best", ds, FeatureMatrix(np.zeros((2, 2))), seed=0)


# -------------------------------------------------------------- resampling


def test_resample_meets_the_budget_and_respects_support():
    ds = random_dataset(10, [20, 20])
    probs = np.concatenate([np.full(20, 0.05), np.zeros(20)])
    out, kept = resample_fixed_budget(ds, probs, budget=15, seed=0)
    assert out.n == 15
    # zero-probability class never drawn, so only class 0 survives
    np.testing.assert_array_equal(kept, [0])
    assert out.k == 1


def test_resample_concentrates_near_expected_class_shares():
    ds = random_dataset(11, [50, 50])
    w = np.array([0.8, 0.2])
    probs = np.repeat(w / 50, 50)
    budget = 2000
    out, kept = resample_fixed_budget(ds, probs, budget=budget, seed=1)
    original_labels = kept[out.labels]
    share0 = float(np.mean(original_labels == 0))
    sigma = np.sqrt(0.8 * 0.2 / budget)
    assert abs(share0 - 0.8) < 4 * sigma


def test_resample_determinism_and_zero_guard():
    ds = random_dataset(12, [6, 6])
    probs = np.full(ds.n, 1 / ds.n)
    a = resample_fixed_budget(ds, probs, budget=9, seed=7)
    b = resample_fixed_budget(ds, probs, budget=9, seed=7)
    np.testing.assert_array_equal(a[1], b[1])
    with pytest.raises(DegenerateInput):
        resample_fixed_budget(ds, np.zeros(ds.n), budget=3, seed=0)


# ---------------------------------------------------------------- pipeline


def test_select_weights_covers_every_method():
    sc = build_scenario("dda", k_source=3, k_target=2, overlap=0,
                        separation=8.0, seed=4, per_class=10,
                        per_class_train=8, per_class_test=8)
    src = sort_by_class(sc.source)
    tgt = FeatureMatrix(sc.target_train.features.values)
    objectives = {}
    for method in PIPELINE_METHODS:
        sol = select_weights(method, src, tgt, seed=0, sinkhorn_cfg=None)
        assert abs(sol.weights.weights.sum() - 1) < 1e-9
        assert sol.support_size == sol.weights.support().size
        # each plan spreads the reported weight of a class evenly over its rows
        np.testing.assert_allclose(sol.plan.source_marginal,
                                   np.repeat(sol.weights.weights / src.class_counts,
                                             src.class_counts), atol=1e-12)
        objectives[method] = sol.objective
    # the exact solver minimizes the shared objective
    for method in ("all", "rnd", "mn", "wass-sinkhorn"):
        assert objectives["wass"] <= objectives[method] + 1e-7


def test_an_unreached_sinkhorn_target_is_a_pipeline_warning(monkeypatch):
    sc = build_scenario("dda", k_source=3, k_target=2, overlap=0,
                        separation=8.0, seed=4, per_class=10,
                        per_class_train=8, per_class_test=8)
    solve = pipeline_module.sinkhorn_class_weights
    monkeypatch.setattr(pipeline_module, "sinkhorn_class_weights",
                        lambda D, counts, cfg: solve(D, counts, SinkhornConfig(max_iters=1)))
    res = run_pipeline(sc.source, sc.target_train, sc.target_test, method="wass-sinkhorn",
                       cfg=TrainConfig(epochs=3), source_class_ids=sc.source_class_ids,
                       target_class_ids=sc.target_class_ids)
    assert len(res.warnings) == 1
    assert res.warnings[0].startswith("target epsilon not reached after 1 iterations")
    assert "inf" not in res.warnings[0]


def test_run_pipeline_end_to_end_and_input_immutability():
    sc = build_scenario("dda", k_source=3, k_target=2, overlap=0,
                        separation=10.0, seed=9, per_class=12,
                        per_class_train=10, per_class_test=10)
    before = copy.deepcopy((sc.source.features.values, sc.target_train.features.values))
    res = run_pipeline(sc.source, sc.target_train, sc.target_test,
                       method="wass", cfg=TrainConfig(epochs=25, seed=0),
                       source_class_ids=sc.source_class_ids,
                       target_class_ids=sc.target_class_ids)
    assert res.method == "wass"
    assert 0.0 <= res.report.zero_one_error <= 1.0
    assert res.support_size == int((res.weights.weights > 0).sum())
    assert res.w1_objective >= 0
    assert set(res.finetuned.class_list) == set(sc.target_class_ids)
    np.testing.assert_array_equal(before[0], sc.source.features.values)
    np.testing.assert_array_equal(before[1], sc.target_train.features.values)


def test_run_pipeline_budget_path():
    sc = build_scenario("dda", k_source=3, k_target=2, overlap=0,
                        separation=10.0, seed=10, per_class=15,
                        per_class_train=10, per_class_test=10)
    res = run_pipeline(sc.source, sc.target_train, sc.target_test,
                       method="all", cfg=TrainConfig(epochs=10, seed=1), budget=20,
                       source_class_ids=sc.source_class_ids,
                       target_class_ids=sc.target_class_ids)
    assert 0.0 <= res.report.zero_one_error <= 1.0


def test_run_pipeline_is_deterministic():
    sc = build_scenario("dda", k_source=3, k_target=2, overlap=0,
                        separation=9.0, seed=11, per_class=10,
                        per_class_train=8, per_class_test=8)
    kw = dict(method="wass", cfg=TrainConfig(epochs=15, seed=5),
              source_class_ids=sc.source_class_ids,
              target_class_ids=sc.target_class_ids)
    a = run_pipeline(sc.source, sc.target_train, sc.target_test, **kw)
    b = run_pipeline(sc.source, sc.target_train, sc.target_test, **kw)
    assert a.report.zero_one_error == b.report.zero_one_error
    np.testing.assert_array_equal(a.finetuned.weight_matrix, b.finetuned.weight_matrix)


@pytest.mark.parametrize("entry", ["run_pipeline", "end_to_end_bound_report"])
def test_class_id_arrays_are_checked_before_any_solve(entry, monkeypatch):
    sc = build_scenario("dda", k_source=4, k_target=2, overlap=0,
                        separation=9.0, seed=12, per_class=6,
                        per_class_train=5, per_class_test=5)

    def no_solve(*args, **kwargs):
        raise AssertionError("weights were selected before the class ids were checked")

    monkeypatch.setattr(pipeline_module, "select_weights", no_solve)
    call = run_pipeline if entry == "run_pipeline" else end_to_end_bound_report
    src, tgt = sc.source_class_ids, sc.target_class_ids
    bad = [
        (DimensionMismatch, src[:2], tgt),
        (DimensionMismatch, src, np.append(tgt, 99)),
        (DimensionMismatch, src.reshape(2, 2), tgt),
        (MalformedFile, np.array([src[0], src[0], src[2], src[3]]), tgt),
        (MalformedFile, src, np.array([tgt[0], tgt[0]])),
        (MalformedFile, src + 0.5, tgt),
        (MalformedFile, src, tgt - 0.5),
    ]
    for error, source_ids, target_ids in bad:
        with pytest.raises(error):
            call(sc.source, sc.target_train, sc.target_test, cfg=TrainConfig(epochs=2),
                 source_class_ids=source_ids, target_class_ids=target_ids)


# -------------------------------------------------------------- head files


def test_head_roundtrip_is_exact(tmp_file):
    head = SoftmaxHead(rng(13).normal(size=(3, 4)), np.array([2, 7, 11]))
    path = tmp_file("head.json")
    save_head(head, path)
    back = load_head(path)
    np.testing.assert_array_equal(back.weight_matrix, head.weight_matrix)
    np.testing.assert_array_equal(back.class_list, head.class_list)


@pytest.mark.parametrize("text", [
    "not json",
    '{"classes": [0], "matrix": [[1, 0], [0, 1]]}',
    '{"classes": [3, 3], "matrix": [[1, 0], [0, 1]]}',
    '{"classes": [0, 1], "matrix": [[NaN, 0], [0, 1]]}',
])
def test_a_malformed_head_file_is_named_in_the_error(tmp_file, text):
    # SoftmaxHead's own DimensionMismatch and MalformedFile named no file
    path = tmp_file("head.json")
    with open(path, "w") as f:
        f.write(text)
    with pytest.raises(MalformedFile, match=f"^{re.escape(path)}: not a head document: "):
        load_head(path)


def test_head_file_rejects_garbage(tmp_file):
    path = tmp_file("bad.json")
    with open(path, "w") as f:
        f.write("{\"classes\": [1, 2]}")
    with pytest.raises(MalformedFile):
        load_head(path)
