"""Snapshot of the public API: names, call signatures and dataclass fields.

A change that adds, removes or renames a public name, a parameter, a default
or a dataclass field fails here; update the literals only on purpose.
"""

import dataclasses
import inspect

import otselect

ALL = [
    "BoundReport",
    "ClassWeightSolution",
    "ClassWeights",
    "DiscreteJointDistribution",
    "EvalReport",
    "ExperimentConfig",
    "FeatureMatrix",
    "LabeledDataset",
    "OtProblem",
    "OtselectError",
    "PipelineResult",
    "Scenario",
    "ScenarioConfig",
    "SinkhornConfig",
    "SoftmaxHead",
    "SynthSpec",
    "TrainConfig",
    "TransportPlan",
    "assemble_transfer_bound",
    "baseline_weights",
    "beta_bound",
    "brute_force_class_weights",
    "check_error_difference_bound",
    "compute_bound_report",
    "conditional_wasserstein_term",
    "decomposition_check",
    "default_dda_matrix",
    "densify_labels",
    "end_to_end_bound_report",
    "estimate_rho",
    "evaluate",
    "finetune_head",
    "generate",
    "induced_error",
    "joint_wasserstein",
    "largest_singular_value",
    "load_class_weights",
    "load_feature_matrix",
    "load_head",
    "load_labels",
    "make_scenario",
    "pairwise_distances",
    "parse_experiment_config",
    "resample_fixed_budget",
    "rows_to_csv",
    "run_experiment_matrix",
    "run_pipeline",
    "run_verification_suite",
    "save_class_weights",
    "save_feature_matrix",
    "save_head",
    "save_labels",
    "sinkhorn_class_weights",
    "softmax_lipschitz_constant",
    "solve_class_weights",
    "solve_exact_ot",
    "train_head",
    "verify_softmax_lipschitz",
    "wasserstein_distance",
    "weights_to_sample_probabilities",
]

SIGNATURES = {
    "assemble_transfer_bound": (
        "(eps_source_pretrained: 'float', w1: 'float', rho: 'float', alpha: 'float', "
        "beta: 'float', sigma_max_diff: 'float') -> 'float'"),
    "baseline_weights": (
        "(method: 'str', source: 'LabeledDataset', target: 'FeatureMatrix', seed: 'int', "
        "mn_top: 'int' = 3) -> 'ClassWeights'"),
    "beta_bound": "(features: 'FeatureMatrix') -> 'float'",
    "brute_force_class_weights": (
        "(D: 'np.ndarray', class_counts: 'np.ndarray', "
        "grid_step: 'float') -> 'tuple[ClassWeights, float]'"),
    "check_error_difference_bound": (
        "(p: 'DiscreteJointDistribution', q: 'DiscreteJointDistribution', "
        "head: 'SoftmaxHead') -> 'tuple[float, float, bool]'"),
    "compute_bound_report": (
        "(pretrained: 'SoftmaxHead', finetuned: 'SoftmaxHead', "
        "source: 'DiscreteJointDistribution', target: 'DiscreteJointDistribution', *, "
        "label_cost: 'float' = 1.0) -> 'BoundReport'"),
    "conditional_wasserstein_term": (
        "(p: 'DiscreteJointDistribution', q: 'DiscreteJointDistribution', "
        "weighting: 'str' = 'source', label_cost: 'float' = 1.0) -> 'float'"),
    "decomposition_check": (
        "(p: 'DiscreteJointDistribution', q: 'DiscreteJointDistribution') -> 'tuple[float, "
        "float, bool]'"),
    "default_dda_matrix": "() -> 'ExperimentConfig'",
    "densify_labels": "(raw: 'np.ndarray') -> 'tuple[np.ndarray, dict[int, int]]'",
    "end_to_end_bound_report": (
        "(source, target_train, target_test, *, cfg=None, source_class_ids=None, "
        "target_class_ids=None, skip_finetune: 'bool' = False) -> 'BoundReport'"),
    "estimate_rho": "(head: 'SoftmaxHead', features: 'FeatureMatrix') -> 'tuple[float, float]'",
    "evaluate": (
        "(head: 'SoftmaxHead', features: 'FeatureMatrix', labels: 'np.ndarray') -> 'EvalReport'"),
    "finetune_head": (
        "(features: 'FeatureMatrix', labels: 'np.ndarray', base: 'SoftmaxHead | None', "
        "cfg: 'TrainConfig', class_list: 'np.ndarray | None' = None) -> 'SoftmaxHead'"),
    "generate": "(spec: 'SynthSpec') -> 'LabeledDataset'",
    "induced_error": (
        "(probs: 'np.ndarray', labels_onehot: 'np.ndarray', "
        "masses: 'np.ndarray | None' = None) -> 'float'"),
    "joint_wasserstein": (
        "(p: 'DiscreteJointDistribution', q: 'DiscreteJointDistribution', "
        "label_cost: 'float' = 1.0) -> 'float'"),
    "largest_singular_value": "(M: 'np.ndarray') -> 'float'",
    "load_class_weights": "(path) -> 'dict[int, float]'",
    "load_feature_matrix": "(path, format: 'str' = 'binary') -> 'FeatureMatrix'",
    "load_head": "(path) -> 'SoftmaxHead'",
    "load_labels": "(path) -> 'tuple[np.ndarray, dict[int, int]]'",
    "make_scenario": (
        "(kind: 'str', k_source: 'int', k_target: 'int', overlap: 'int', separation: 'float', "
        "seed: 'int', **kwargs) -> 'tuple[LabeledDataset, LabeledDataset, LabeledDataset]'"),
    "pairwise_distances": "(source: 'FeatureMatrix', target: 'FeatureMatrix') -> 'np.ndarray'",
    "parse_experiment_config": "(path) -> 'ExperimentConfig'",
    "resample_fixed_budget": (
        "(dataset: 'LabeledDataset', sample_probs: 'np.ndarray', budget: 'int', "
        "seed: 'int') -> 'tuple[LabeledDataset, np.ndarray]'"),
    "rows_to_csv": "(rows: 'list[dict]') -> 'str'",
    "run_experiment_matrix": (
        "(config: 'ExperimentConfig', threads: 'int | None' = None) -> 'list[dict]'"),
    "run_pipeline": (
        "(source: 'LabeledDataset', target_train: 'LabeledDataset', "
        "target_test: 'LabeledDataset', *, method: 'str' = 'wass', "
        "cfg: 'TrainConfig | None' = None, budget: 'int' = 0, "
        "source_class_ids: 'np.ndarray | None' = None, "
        "target_class_ids: 'np.ndarray | None' = None) -> 'PipelineResult'"),
    "run_verification_suite": "(seed: 'int', trials: 'int') -> 'dict'",
    "save_class_weights": "(w: 'ClassWeights', mapping: 'dict[int, int]', path) -> 'None'",
    "save_feature_matrix": "(matrix: 'FeatureMatrix', path, format: 'str' = 'binary') -> 'None'",
    "save_head": "(head: 'SoftmaxHead', path) -> 'None'",
    "save_labels": "(labels: 'np.ndarray', path) -> 'None'",
    "sinkhorn_class_weights": (
        "(D: 'np.ndarray', class_counts: 'np.ndarray', "
        "cfg: 'SinkhornConfig | None' = None) -> 'ClassWeightSolution'"),
    "softmax_lipschitz_constant": "(K: 'int') -> 'float'",
    "solve_class_weights": (
        "(D: 'np.ndarray', class_counts: 'np.ndarray', *, "
        "sinkhorn_threshold: 'int | None' = None) -> 'ClassWeightSolution'"),
    "solve_exact_ot": "(problem: 'OtProblem', max_iters: 'int | None' = None) -> 'TransportPlan'",
    "train_head": (
        "(features: 'FeatureMatrix', labels: 'np.ndarray', sample_probs: 'np.ndarray', "
        "cfg: 'TrainConfig', class_list: 'np.ndarray | None' = None) -> 'SoftmaxHead'"),
    "verify_softmax_lipschitz": "(K: 'int', trials: 'int', seed: 'int') -> 'float'",
    "wasserstein_distance": "(cost: 'np.ndarray', mu: 'np.ndarray', nu: 'np.ndarray') -> 'float'",
    "weights_to_sample_probabilities": "(w: 'ClassWeights', labels: 'np.ndarray') -> 'np.ndarray'",
}

FIELDS = {
    "BoundReport": (
        "eps_source", "eps_target", "w1_marginal", "w1_joint", "cond_term_source",
        "cond_term_target", "rho_hat", "rho_upper", "alpha", "beta", "sigma_max_diff",
        "bound_value", "holds", "lambda_hat",
    ),
    "ClassWeightSolution": (
        "weights", "plan", "objective", "support_size", "converged", "warning",
    ),
    "ClassWeights": ("weights",),
    "DiscreteJointDistribution": ("features", "labels", "masses"),
    "EvalReport": ("zero_one_error", "cross_entropy", "per_class_accuracy", "n_eval"),
    "ExperimentConfig": (
        "scenarios", "methods", "seeds", "epochs", "learning_rate", "batch_size", "l2_penalty",
        "budget", "threads",
    ),
    "FeatureMatrix": ("values",),
    "LabeledDataset": ("features", "labels", "class_counts"),
    "OtProblem": ("cost", "mu", "nu"),
    "PipelineResult": (
        "method", "weights", "support_size", "w1_objective", "report", "pretrained",
        "finetuned", "warnings",
    ),
    "Scenario": (
        "kind", "source", "target_train", "target_test", "source_class_ids", "target_class_ids",
        "planted", "separation",
    ),
    "ScenarioConfig": (
        "name", "kind", "k_source", "k_target", "overlap", "separation", "dim", "per_class",
        "per_class_train", "per_class_test", "near", "seed",
    ),
    "SinkhornConfig": ("epsilon", "max_iters", "tol"),
    "SoftmaxHead": ("weight_matrix", "class_list"),
    "SynthSpec": ("dim", "classes", "seed"),
    "TrainConfig": (
        "learning_rate", "epochs", "batch_size", "seed", "l2_penalty", "early_stop_patience",
    ),
    "TransportPlan": ("plan", "source_marginal", "target_marginal", "objective", "dual_gap"),
}


def public(kind):
    return {name: getattr(otselect, name) for name in ALL if kind(getattr(otselect, name))}


def test_public_names_are_pinned():
    assert list(otselect.__all__) == ALL
    others = set(ALL) - set(public(inspect.isfunction)) - set(public(dataclasses.is_dataclass))
    assert others == {"OtselectError"} and issubclass(otselect.OtselectError, Exception)


def test_public_signatures_are_pinned():
    got = {name: str(inspect.signature(fn)) for name, fn in public(inspect.isfunction).items()}
    assert got == SIGNATURES


def test_public_dataclass_fields_are_pinned():
    got = {name: tuple(f.name for f in dataclasses.fields(cls))
           for name, cls in public(dataclasses.is_dataclass).items()}
    assert got == FIELDS
