"""Source-class selection by optimal transport, with training and diagnostics.

The library picks nonnegative weights over source classes so that the
reweighted source feature distribution is as close as possible, in
Wasserstein distance, to a target feature distribution; trains a softmax
head on the reweighted source and fine-tunes it on the target; and measures
every term of the generalization bound that justifies the selection.
"""

from .bounds import (
    BoundReport,
    assemble_transfer_bound,
    beta_bound,
    check_error_difference_bound,
    compute_bound_report,
    conditional_wasserstein_term,
    decomposition_check,
    end_to_end_bound_report,
    estimate_rho,
    induced_error,
    largest_singular_value,
    run_verification_suite,
    softmax_lipschitz_constant,
    verify_softmax_lipschitz,
)
from .classlp import (
    ClassWeightSolution,
    brute_force_class_weights,
    solve_class_weights,
    weights_to_sample_probabilities,
)
from .data import (
    ClassWeights,
    DiscreteJointDistribution,
    FeatureMatrix,
    LabeledDataset,
    TransportPlan,
    densify_labels,
    load_class_weights,
    load_feature_matrix,
    load_labels,
    save_class_weights,
    save_feature_matrix,
    save_labels,
)
from .distance import pairwise_distances
from .errors import OtselectError
from .experiment import (
    ExperimentConfig,
    ScenarioConfig,
    default_dda_matrix,
    parse_experiment_config,
    rows_to_csv,
    run_experiment_matrix,
)
from .ot import (
    OtProblem,
    joint_wasserstein,
    solve_exact_ot,
    wasserstein_distance,
)
from .pipeline import (
    EvalReport,
    PipelineResult,
    SoftmaxHead,
    TrainConfig,
    baseline_weights,
    evaluate,
    finetune_head,
    load_head,
    resample_fixed_budget,
    run_pipeline,
    save_head,
    train_head,
)
from .sinkhorn import SinkhornConfig, sinkhorn_class_weights
from .synth import Scenario, SynthSpec, build_scenario, generate, make_scenario

__version__ = "0.1.0"

__all__ = [
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
