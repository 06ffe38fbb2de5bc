"""Public entry points refuse malformed input up front with a message naming
the fault. Each kind of fault raises one exception class wherever it
arrives: a probability vector of the wrong shape raises
``DimensionMismatch``, a NaN or inf ``NonFiniteValue``, a negative entry or
a total off one ``MalformedFile``, and an all-zero vector
``DegenerateInput``, whichever entry point reads it."""

import json
import os
import re
import tempfile

import numpy as np
import pytest

from otselect import (
    ClassWeights,
    DiscreteJointDistribution,
    ExperimentConfig,
    FeatureMatrix,
    LabeledDataset,
    OtProblem,
    ScenarioConfig,
    SinkhornConfig,
    SoftmaxHead,
    SynthSpec,
    TrainConfig,
    TransportPlan,
    baseline_weights,
    brute_force_class_weights,
    build_scenario,
    compute_bound_report,
    conditional_wasserstein_term,
    densify_labels,
    evaluate,
    induced_error,
    joint_wasserstein,
    largest_singular_value,
    load_head,
    resample_fixed_budget,
    run_experiment_matrix,
    run_pipeline,
    solve_class_weights,
    solve_exact_ot,
    train_head,
    weights_to_sample_probabilities,
)
from otselect.bounds import run_verification_suite, verify_softmax_lipschitz
from otselect.errors import DegenerateInput, DimensionMismatch, MalformedFile, NonFiniteValue

from conftest import random_joint

HALF = np.full((2, 2), 0.5)
U2 = np.full(2, 0.5)


def nan_cost():
    D = np.ones((4, 3))
    D[1, 2] = np.nan
    return D


def dataset():
    return LabeledDataset(FeatureMatrix(np.arange(8.0).reshape(4, 2)), np.array([0, 0, 1, 1]))


F3 = FeatureMatrix(np.arange(6.0).reshape(3, 2))
HEAD = SoftmaxHead(np.eye(2), [0, 1])
WIDE_HEAD = SoftmaxHead(np.zeros((2, 3)), [0, 1])


def fit(labels, class_list=None):
    return train_head(F3, labels, np.full(3, 1 / 3), TrainConfig(epochs=2), class_list)


def experiment(**fields):
    return ExperimentConfig((ScenarioConfig("x"),), **fields)


def load_head_with_classes(classes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "head.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"classes": classes, "matrix": [[1.0, 0.0], [0.0, 1.0]]}, f)
        return load_head(path)


def pipeline_with_ids(source_ids=None, target_ids=None):
    return run_pipeline(dataset(), dataset(), dataset(), cfg=TrainConfig(epochs=2),
                        source_class_ids=source_ids, target_class_ids=target_ids)


CASES = {
    "class_lp_1d_cost": (lambda: solve_class_weights(np.ones(4), [4]),
                         DimensionMismatch, "2-D"),
    "class_lp_zero_count": (lambda: solve_class_weights(np.ones((4, 3)), [4, 0]),
                            DimensionMismatch, "positive integers"),
    "class_lp_nan_cost": (lambda: solve_class_weights(nan_cost(), [2, 2]),
                          MalformedFile, "finite and nonnegative"),
    "class_lp_negative_cost": (lambda: solve_class_weights(-np.ones((4, 3)), [2, 2]),
                               MalformedFile, "finite and nonnegative"),
    "ot_problem_shapes": (lambda: OtProblem(np.ones((2, 3)), U2, U2),
                          DimensionMismatch, r"nu has shape \(2,\); it must align with 3 entries"),
    "ot_problem_empty_side": (lambda: OtProblem(np.ones((0, 2)), np.ones(0), U2),
                              DimensionMismatch, "empty"),
    "ot_problem_negative_cost": (lambda: OtProblem(-np.ones((2, 2)), U2, U2),
                                 MalformedFile, "finite and nonnegative"),
    "plan_shapes": (lambda: TransportPlan(HALF / 2, U2, np.full(3, 1 / 3), 0.0),
                    DimensionMismatch, "shapes disagree"),
    "plan_negative_entry": (lambda: TransportPlan(np.array([[0.6, -0.1], [-0.1, 0.6]]),
                                                  U2, U2, 0.0),
                            MalformedFile, "negative"),
    # a NaN marginal passed the marginal test, whose comparisons came out false, and
    # the objective and gap were not checked at all
    "plan_nan_source_marginal": (lambda: TransportPlan(HALF / 2, [np.nan, 0.5], U2, 0.0),
                                 NonFiniteValue, "source marginal has non-finite entry at index 0"),
    "plan_infinite_target_marginal": (lambda: TransportPlan(HALF / 2, U2, [0.5, np.inf], 0.0),
                                      NonFiniteValue,
                                      "target marginal has non-finite entry at index 1"),
    "plan_nan_objective": (lambda: TransportPlan(HALF / 2, U2, U2, np.nan),
                           NonFiniteValue, "objective nan is not finite"),
    "plan_negative_dual_gap": (lambda: TransportPlan(HALF / 2, U2, U2, 0.0, dual_gap=-1.0),
                               MalformedFile, "dual gap -1.0 must be finite and >= 0"),
    "plan_nan_dual_gap": (lambda: TransportPlan(HALF / 2, U2, U2, 0.0, dual_gap=np.nan),
                          MalformedFile, "dual gap nan must be finite and >= 0"),
    "induced_error_shapes": (lambda: induced_error(HALF, np.eye(3)),
                             DimensionMismatch, "equal 2-d shapes"),
    "induced_error_nan": (lambda: induced_error([[np.nan, 0.5], [0.5, 0.5]], np.eye(2)),
                          NonFiniteValue, "finite"),
    "induced_error_not_one_hot": (lambda: induced_error(HALF, [[1.0, 0.0], [0.5, 0.5]]),
                                  DimensionMismatch, "one-hot"),
    "induced_error_masses_misaligned": (lambda: induced_error(HALF, np.eye(2), [1.0]),
                                        DimensionMismatch, "align"),
    "induced_error_masses_not_simplex": (lambda: induced_error(HALF, np.eye(2), [0.7, 0.7]),
                                         MalformedFile, "masses has total 1.4, expected 1"),
    # a NaN mass passed both the sign and the sum test, and the error came out NaN
    "induced_error_nan_mass": (lambda: induced_error(HALF, np.eye(2), [np.nan, 1.0]),
                               NonFiniteValue, "masses has non-finite entry at index 0"),
    "conditional_term_weighting": (
        lambda: conditional_wasserstein_term(random_joint(1), random_joint(2), "both"),
        ValueError, "weighting"),
    "conditional_term_label_cost": (
        lambda: conditional_wasserstein_term(random_joint(1), random_joint(2), label_cost=-1.0),
        ValueError, "label_cost"),
    "joint_wasserstein_label_cost": (
        lambda: joint_wasserstein(random_joint(1), random_joint(2), label_cost=-1.0),
        ValueError, "label_cost"),
    "bound_report_head_shapes": (
        lambda: compute_bound_report(SoftmaxHead(np.zeros((2, 2)), [0, 1]),
                                     SoftmaxHead(np.zeros((2, 3)), [0, 1]),
                                     random_joint(1), random_joint(2)),
        DimensionMismatch, "weight-matrix shape"),
    "sample_probabilities_empty_labels": (
        lambda: weights_to_sample_probabilities(ClassWeights(U2), np.array([], dtype=np.int64)),
        DimensionMismatch, "non-empty"),
    "sample_probabilities_missing_class": (
        lambda: weights_to_sample_probabilities(ClassWeights(U2), np.array([0, 0])),
        DimensionMismatch, "every class"),
    "resample_zero_budget": (lambda: resample_fixed_budget(dataset(), np.full(4, 0.25), 0, 0),
                             ValueError, "budget"),
    "resample_misaligned_probabilities": (
        lambda: resample_fixed_budget(dataset(), np.full(3, 1 / 3), 5, 0),
        DimensionMismatch, "align"),
    # negative and non-finite probabilities reached rng.choice, and inf warned first
    "resample_negative_probability": (
        lambda: resample_fixed_budget(dataset(), [-0.5, 0.5, 0.5, 0.5], 5, 0),
        MalformedFile, "negative entry"),
    "resample_nan_probability": (
        lambda: resample_fixed_budget(dataset(), [np.nan, 0.5, 0.5, 0.5], 5, 0),
        NonFiniteValue, "sample_probs has non-finite entry at index 0"),
    "resample_infinite_probability": (
        lambda: resample_fixed_budget(dataset(), [0.5, np.inf, 0.5, 0.5], 5, 0),
        NonFiniteValue, "sample_probs has non-finite entry at index 1"),
    "train_config_infinite_learning_rate": (lambda: TrainConfig(learning_rate=np.inf),
                                            ValueError, "learning_rate"),
    "train_config_nan_l2_penalty": (lambda: TrainConfig(l2_penalty=np.nan),
                                    ValueError, "l2_penalty"),
    "train_config_negative_seed": (lambda: TrainConfig(seed=-1), ValueError, "seed"),
    "train_config_negative_patience": (lambda: TrainConfig(early_stop_patience=-1),
                                       ValueError, "early_stop_patience"),
    # mn_top=0 divided by zero and -1 dropped the last ranked class
    "baseline_mn_top_zero": (lambda: baseline_weights("mn", dataset(), dataset().features, 0, 0),
                             ValueError, "mn_top"),
    # a negative worker count ran the cells inline
    "experiment_negative_threads": (lambda: experiment(threads=-3),
                                    ValueError, "threads must be an integer >= 0"),
    "matrix_negative_threads": (lambda: run_experiment_matrix(experiment(), threads=-2),
                                ValueError, "threads must be an integer >= 0"),
    # each of these wrote one error row per cell and an exit code of 0
    "experiment_zero_epochs": (lambda: experiment(epochs=0),
                               ValueError, "epochs must be an integer >= 1, got 0"),
    "experiment_negative_learning_rate": (lambda: experiment(learning_rate=-1.0),
                                          ValueError, "learning_rate must be finite and > 0"),
    "experiment_zero_batch_size": (lambda: experiment(batch_size=0),
                                   ValueError, "batch_size must be an integer >= 1, got 0"),
    "experiment_nan_l2_penalty": (lambda: experiment(l2_penalty=np.nan),
                                  ValueError, "l2_penalty must be finite and >= 0, got nan"),
    "experiment_negative_budget": (lambda: experiment(budget=-1),
                                   ValueError, "budget must be an integer >= 0, got -1"),
    "experiment_negative_seed": (lambda: experiment(seeds=(0, -1)),
                                 ValueError, "seed must be an integer >= 0, got -1"),
    "experiment_fractional_seed": (lambda: experiment(seeds=(1.5,)),
                                   ValueError, "seed must be an integer >= 0, got 1.5"),
    "singular_value_empty_matrix": (lambda: largest_singular_value(np.zeros((0, 3))),
                                    DimensionMismatch, "non-empty"),
    # non-integral labels were truncated toward zero
    "dataset_fractional_labels": (lambda: LabeledDataset(F3, [0.7, 1.2, 0.0]),
                                  MalformedFile, "finite integers, got 0.7 at flat index 0"),
    "dataset_infinite_label": (lambda: LabeledDataset(F3, [0.0, np.inf, 1.0]),
                               MalformedFile, "got inf at flat index 1"),
    "train_head_fractional_labels": (lambda: fit(np.array([0, 1, 0]) + 0.5),
                                     MalformedFile, "finite integers"),
    # a NaN label warned in the int cast, then failed the [0, k) range check
    "train_head_nan_label": (lambda: fit([0.0, np.nan, 1.0]), MalformedFile, "got nan"),
    "evaluate_fractional_labels": (lambda: evaluate(HEAD, F3, [0.5, 1.0, 0.0]),
                                   MalformedFile, "finite integers"),
    # 2-D labels failed in int() with a TypeError
    "evaluate_2d_labels": (lambda: evaluate(HEAD, F3, [[0], [1], [0]]),
                           DimensionMismatch, "vector aligned"),
    # a head of the wrong width failed in numpy's matmul
    "evaluate_head_too_wide": (lambda: evaluate(WIDE_HEAD, F3, [0, 1, 0]),
                               DimensionMismatch, r"shape \(3, 2\) do not fit .* 3 feature"),
    "predict_proba_head_too_wide": (lambda: WIDE_HEAD.predict_proba(F3.values),
                                    DimensionMismatch, "do not fit"),
    "predict_logits_one_row_vector": (lambda: HEAD.predict_logits(np.ones(2)),
                                      DimensionMismatch, "do not fit"),
    "bound_report_heads_too_wide": (
        lambda: compute_bound_report(*[SoftmaxHead(np.zeros((3, 3)), [0, 1, 2])] * 2,
                                     random_joint(1), random_joint(2)),
        DimensionMismatch, "do not fit"),
    # every reader of a label, class-id or class-count array below truncated 0.5 to 0
    "joint_fractional_labels": (
        lambda: DiscreteJointDistribution(np.zeros((2, 1)), [0.5, 1.0], U2),
        MalformedFile, "joint distribution labels must be finite integers, got 0.5"),
    "joint_from_dataset_fractional_label_ids": (
        lambda: DiscreteJointDistribution.from_dataset(dataset(), label_ids=[4.0, 7.5]),
        MalformedFile, "label_ids must be finite integers, got 7.5"),
    # one id raised numpy's IndexError, and two equal ids merged both classes
    "joint_from_dataset_too_few_label_ids": (
        lambda: DiscreteJointDistribution.from_dataset(dataset(), label_ids=[4]),
        DimensionMismatch, r"label_ids has shape \(1,\), expected \(2,\)"),
    "joint_from_dataset_duplicate_label_ids": (
        lambda: DiscreteJointDistribution.from_dataset(dataset(), label_ids=[4, 4]),
        MalformedFile, "label_ids has duplicate ids"),
    # a negative or NaN probability was dropped with the zero rows and the
    # rest renormalised; all zeros and a wrong length failed inside numpy
    "joint_from_dataset_probabilities_misaligned": (
        lambda: DiscreteJointDistribution.from_dataset(dataset(), sample_probs=[0.5, 0.5]),
        DimensionMismatch, "align"),
    "joint_from_dataset_nan_probability": (
        lambda: DiscreteJointDistribution.from_dataset(dataset(), [np.nan, 0.5, 0.5, 0.0]),
        NonFiniteValue, "sample_probs has non-finite entry at index 0"),
    "joint_from_dataset_negative_probability": (
        lambda: DiscreteJointDistribution.from_dataset(dataset(), [-0.5, 0.5, 1.0, 0.0]),
        MalformedFile, "negative entry"),
    "joint_from_dataset_zero_probabilities": (
        lambda: DiscreteJointDistribution.from_dataset(dataset(), np.zeros(4)),
        DegenerateInput, "sample_probs has no positive entry"),
    "densify_fractional_labels": (lambda: densify_labels([0.7, 1.2, 2.9]),
                                  MalformedFile, "labels must be finite integers, got 0.7"),
    "head_fractional_class_list": (lambda: SoftmaxHead(np.eye(2), [0.5, 1.5]),
                                   MalformedFile, "class list must be finite integers"),
    "load_head_fractional_classes": (lambda: load_head_with_classes([0, 2.5]),
                                     MalformedFile, "class list must be finite integers"),
    "class_position_fractional_id": (lambda: HEAD.class_position([1.5]),
                                     MalformedFile, "class_ids must be finite integers"),
    "train_head_fractional_class_list": (lambda: fit([0, 1, 0], class_list=[0.5, 1.5]),
                                         MalformedFile, "class list must be finite integers"),
    "run_pipeline_fractional_source_ids": (
        lambda: pipeline_with_ids(source_ids=[0.5, 1.0]),
        MalformedFile, "source_class_ids must be finite integers"),
    "run_pipeline_fractional_target_ids": (
        lambda: pipeline_with_ids(target_ids=[2.0, 3.5]),
        MalformedFile, "target_class_ids must be finite integers"),
    "sample_probabilities_fractional_labels": (
        lambda: weights_to_sample_probabilities(ClassWeights(U2), [0.0, 1.5]),
        MalformedFile, "labels must be finite integers"),
    # [2.7, 2.2] solved as [2, 2]
    "class_lp_fractional_counts": (lambda: solve_class_weights(np.ones((4, 3)), [2.7, 2.2]),
                                   MalformedFile, "class_counts must be finite integers"),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_malformed_input_raises_its_own_error(case):
    call, error, message = case
    with pytest.raises(error, match=message):
        call()


# Every reader of a probability vector over the four rows of ``dataset()``,
# with the name its messages give the vector and whether it requires a total
# of one. ``ClassWeights`` takes a vector of any length.
U4 = np.full(4, 0.25)
PROBABILITY_READERS = {
    "class_weights": (ClassWeights, "class weights", True),
    "joint_masses": (lambda p: DiscreteJointDistribution(np.arange(4.0)[:, None], [0, 0, 1, 1], p),
                     "joint distribution masses", True),
    "joint_from_dataset": (lambda p: DiscreteJointDistribution.from_dataset(dataset(), p),
                           "sample_probs", False),
    "ot_problem_mu": (lambda p: OtProblem(np.ones((4, 4)), p, U4), "mu", True),
    "ot_problem_nu": (lambda p: OtProblem(np.ones((4, 4)), U4, p), "nu", True),
    "induced_error": (lambda p: induced_error(np.full((4, 2), 0.5), np.eye(2)[[0, 0, 1, 1]], p),
                      "masses", True),
    "train_head": (lambda p: train_head(dataset().features, dataset().labels, p,
                                        TrainConfig(epochs=1)),
                   "sample_probs", True),
    "resample_fixed_budget": (lambda p: resample_fixed_budget(dataset(), p, 5, 0),
                              "sample_probs", False),
}
PROBABILITY_FAULTS = {
    "wrong_length": (np.full(3, 1 / 3), DimensionMismatch, r"has shape \(3,\)"),
    "nan": ([np.nan, 0.25, 0.25, 0.5], NonFiniteValue, "has non-finite entry at index 0"),
    "inf": ([0.25, np.inf, 0.25, 0.5], NonFiniteValue, "has non-finite entry at index 1"),
    "negative": ([-0.25, 0.75, 0.25, 0.25], MalformedFile, "has negative entry -2.500e-01"),
    "all_zero": (np.zeros(4), DegenerateInput, "has no positive entry"),
    "total_0.7": ([0.1, 0.2, 0.2, 0.2], MalformedFile, "has total 0.7, expected 1"),
}


@pytest.mark.parametrize("reader, fault", [
    pytest.param(reader, fault, id=f"{reader}-{fault}")
    for reader, (_, _, needs_one) in PROBABILITY_READERS.items()
    for fault in PROBABILITY_FAULTS
    if not (fault == "wrong_length" and reader == "class_weights")
    and not (fault == "total_0.7" and not needs_one)])
def test_a_probability_vector_fault_raises_one_error_everywhere(reader, fault):
    call, name, _ = PROBABILITY_READERS[reader]
    values, error, message = PROBABILITY_FAULTS[fault]
    with pytest.raises(error, match=f"^{re.escape(name)} {message}"):
        call(values)


# Every reader of a transport cost, given a 4 x 3 cost with one bad entry.
COST_READERS = {
    "ot_problem": lambda D: OtProblem(D, U4, np.full(3, 1 / 3)),
    "class_lp": lambda D: solve_class_weights(D, [2, 2]),
    "grid_oracle": lambda D: brute_force_class_weights(D, [2, 2], 0.5),
}
COST_FAULTS = {"nan": np.nan, "inf": np.inf, "minus_inf": -np.inf, "negative": -1.0}


@pytest.mark.parametrize("fault", COST_FAULTS)
@pytest.mark.parametrize("reader", COST_READERS)
def test_a_cost_fault_raises_one_error_everywhere(reader, fault):
    D = np.ones((4, 3))
    D[1, 2] = COST_FAULTS[fault]
    with pytest.raises(MalformedFile, match="^cost matrix must be finite and nonnegative$"):
        COST_READERS[reader](D)


def scenario(kind="dda", k_source=3, k_target=2, overlap=None, **counts):
    overlap = (0 if kind == "dda" else 1) if overlap is None else overlap
    return build_scenario(kind, k_source, k_target, overlap, 9.0, 0, **counts)


COUNTS = {
    "solve_exact_ot": (lambda n: solve_exact_ot(OtProblem(np.ones((2, 2)), U2, U2), n),
                       "max_iters must be an integer >= 0"),
    "run_verification_suite": (lambda n: run_verification_suite(0, n),
                               "trials must be an integer >= 1"),
    "verify_softmax_lipschitz": (lambda n: verify_softmax_lipschitz(2, n, 0),
                                 "trials must be an integer >= 1"),
    "sinkhorn_max_iters": (lambda n: SinkhornConfig(max_iters=n),
                           "max_iters must be an integer >= 1"),
    "train_epochs": (lambda n: TrainConfig(epochs=n), "epochs must be an integer >= 1"),
    "train_batch_size": (lambda n: TrainConfig(batch_size=n),
                         "batch_size must be an integer >= 1"),
    "train_seed": (lambda n: TrainConfig(seed=n), "seed must be an integer >= 0"),
    "train_early_stop_patience": (lambda n: TrainConfig(early_stop_patience=n),
                                  "early_stop_patience must be an integer >= 0"),
    "baseline_weights_mn_top": (
        lambda n: baseline_weights("mn", dataset(), dataset().features, 0, n),
        "mn_top must be an integer >= 1"),
    "experiment_threads": (lambda n: experiment(threads=n), "threads must be an integer >= 0"),
    "experiment_budget": (lambda n: experiment(budget=n), "budget must be an integer >= 0"),
    "experiment_seeds": (lambda n: experiment(seeds=(n,)), "seed must be an integer >= 0"),
    "experiment_epochs": (lambda n: experiment(epochs=n), "epochs must be an integer >= 1"),
    "resample_fixed_budget": (lambda n: resample_fixed_budget(dataset(), np.full(4, 0.25), n, 0),
                              "budget must be an integer >= 1"),
    # refused before the class selection, which would run first otherwise
    "run_pipeline_budget": (lambda n: run_pipeline(dataset(), dataset(), dataset(), budget=n),
                            "budget must be an integer >= 0"),
    # k_source=2.5 built 3 classes, per_class=2.5 two rows each and per_class=True one row
    "scenario_k_source": (lambda n: scenario(k_source=n), "k_source must be an integer >= 1"),
    "scenario_k_target": (lambda n: scenario(k_target=n), "k_target must be an integer >= 1"),
    "scenario_overlap": (lambda n: scenario(kind="oda", overlap=n),
                         "overlap must be an integer >= 0"),
    "scenario_near": (lambda n: scenario(near=n), "near must be an integer >= 0"),
    "scenario_dim": (lambda n: scenario(dim=n), "dim must be an integer >= 1"),
    "scenario_per_class": (lambda n: scenario(per_class=n), "per_class must be an integer >= 1"),
    "scenario_per_class_train": (lambda n: scenario(per_class_train=n),
                                 "per_class_train must be an integer >= 1"),
    "scenario_per_class_test": (lambda n: scenario(per_class_test=n),
                                "per_class_test must be an integer >= 1"),
    "synth_spec_dim": (lambda n: SynthSpec(n, (((0.0, 0.0), 1.0, 3),), 0),
                       "dim must be an integer >= 1"),
    "synth_spec_count": (lambda n: SynthSpec(2, (((0.0, 0.0), 1.0, n),), 0),
                         "class sample count must be an integer >= 1"),
}


@pytest.mark.parametrize("count", [2.5, 3.0, True])
@pytest.mark.parametrize("entry", COUNTS.values(), ids=COUNTS.keys())
def test_a_count_that_is_not_an_integer_is_refused_up_front(entry, count):
    call, message = entry
    with pytest.raises(ValueError, match=message):
        call(count)


def test_numpy_integer_counts_are_accepted():
    problem = OtProblem(np.array([[0.0, 1.0], [1.0, 0.0]]), U2, U2)
    assert solve_exact_ot(problem, np.int64(0)).objective == 0.0
    assert verify_softmax_lipschitz(2, np.int64(9), 0) == verify_softmax_lipschitz(2, 9, 0)
    assert len(run_verification_suite(0, np.int64(1))["checks"]) == 12


def test_integral_float_labels_are_accepted():
    ds = LabeledDataset(F3, [1.0, 0.0, 1.0])
    np.testing.assert_array_equal(ds.labels, [1, 0, 1])
    assert ds.labels.dtype == np.int64
    np.testing.assert_array_equal(fit([1.0, 0.0, 1.0]).weight_matrix,
                                  fit([1, 0, 1]).weight_matrix)
    as_float, as_int = evaluate(HEAD, F3, [1.0, 0.0, 1.0]), evaluate(HEAD, F3, [1, 0, 1])
    assert as_float.zero_one_error == as_int.zero_one_error
    assert as_float.cross_entropy == as_int.cross_entropy
