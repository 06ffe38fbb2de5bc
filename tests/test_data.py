"""File formats, label densification, and the core container invariants."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from otselect import (
    ClassWeights,
    DiscreteJointDistribution,
    FeatureMatrix,
    LabeledDataset,
    OtProblem,
    SoftmaxHead,
    SynthSpec,
    TransportPlan,
    densify_labels,
    load_class_weights,
    load_feature_matrix,
    load_labels,
    save_class_weights,
    save_feature_matrix,
    save_labels,
    solve_exact_ot,
)
from otselect.data import clamp_weights, load_vector_csv
from otselect.errors import (
    DimensionMismatch,
    EmptyFile,
    MalformedFile,
    NonFiniteValue,
)

finite_f32 = st.floats(-1e6, 1e6, allow_nan=False, width=32)


# ---------------------------------------------------------------- matrices


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
                  elements=finite_f32))
def test_binary_roundtrip_is_exact_for_float32_values(tmp_path_factory, arr):
    path = str(tmp_path_factory.mktemp("bin") / "m.wsf")
    save_feature_matrix(FeatureMatrix(arr.astype(np.float64)), path)
    back = load_feature_matrix(path)
    np.testing.assert_array_equal(back.values, arr.astype(np.float64))


def test_binary_roundtrip_quantizes_general_doubles_to_float32():
    vals = np.array([[np.pi, 1.0 / 3.0], [1e-8, 123456.789]])
    save = FeatureMatrix(vals)
    import tempfile, os

    with tempfile.TemporaryDirectory() as td:
        p = os.path.join(td, "m.wsf")
        save_feature_matrix(save, p)
        back = load_feature_matrix(p).values
    np.testing.assert_array_equal(back, vals.astype(np.float32).astype(np.float64))
    assert not np.array_equal(back, vals)


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
                  elements=st.floats(-1e100, 1e100, allow_nan=False)))
def test_csv_roundtrip_is_exact_for_doubles(tmp_path_factory, arr):
    path = str(tmp_path_factory.mktemp("csv") / "m.csv")
    save_feature_matrix(FeatureMatrix(arr), path, format="csv")
    back = load_feature_matrix(path, format="csv")
    np.testing.assert_array_equal(back.values, arr)


def test_binary_file_has_magic_header(tmp_file):
    path = tmp_file("m.wsf")
    save_feature_matrix(FeatureMatrix(np.ones((2, 3))), path)
    with open(path, "rb") as f:
        assert f.read(4) == b"WSF1"


@pytest.mark.parametrize("payload", [b"", b"XXXX" + b"\0" * 16])
def test_missing_magic_rejected(tmp_file, payload):
    path = tmp_file("bad.wsf")
    with open(path, "wb") as f:
        f.write(payload)
    with pytest.raises(MalformedFile):
        load_feature_matrix(path)


def test_truncated_binary_rejected(tmp_file):
    path = tmp_file("m.wsf")
    save_feature_matrix(FeatureMatrix(np.ones((3, 2))), path)
    raw = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(raw[:-1])
    with pytest.raises(MalformedFile):
        load_feature_matrix(path)


def test_ragged_csv_rejected_with_line_number(tmp_file):
    path = tmp_file("r.csv")
    with open(path, "w") as f:
        f.write("1.0,2.0\n3.0\n")
    with pytest.raises(MalformedFile, match=":2"):
        load_feature_matrix(path, format="csv")


def test_unknown_format_rejected(tmp_file):
    with pytest.raises(ValueError):
        save_feature_matrix(FeatureMatrix(np.ones((1, 1))), tmp_file("x"), format="parquet")


def test_feature_matrix_validation():
    with pytest.raises(MalformedFile):
        FeatureMatrix(np.ones(3))
    with pytest.raises(MalformedFile):
        FeatureMatrix(np.ones((0, 2)))
    with pytest.raises(NonFiniteValue):
        FeatureMatrix(np.array([[1.0, np.inf]]))


def test_load_vector_csv(tmp_file):
    path = tmp_file("v.csv")
    with open(path, "w") as f:
        f.write("0.25\n0.5\n0.25\n")
    np.testing.assert_array_equal(load_vector_csv(path), [0.25, 0.5, 0.25])


# ------------------------------------------------------------------ labels


def test_label_roundtrip_recovers_original_ids(tmp_file):
    path = tmp_file("y.lbl")
    original = np.array([30, 10, 30, 20, 10])
    save_labels(original, path)
    dense, mapping = load_labels(path)
    inverse = {d: o for o, d in mapping.items()}
    np.testing.assert_array_equal([inverse[int(v)] for v in dense], original)


def test_densify_assigns_ids_in_first_appearance_order():
    dense, mapping = densify_labels(np.array([7, -3, 7, 2]))
    np.testing.assert_array_equal(dense, [0, 1, 0, 2])
    assert mapping == {7: 0, -3: 1, 2: 2}


def test_densify_is_idempotent():
    dense, _ = densify_labels(np.array([4, 4, 9, 0]))
    again, mapping = densify_labels(dense)
    np.testing.assert_array_equal(again, dense)
    assert mapping == {int(v): int(v) for v in np.unique(dense)}


@pytest.mark.parametrize("text,err", [("3\nxx\n", MalformedFile),
                                      ("3\n-2\n", MalformedFile),
                                      ("", EmptyFile)])
def test_label_file_rejections(tmp_file, text, err):
    path = tmp_file("bad.lbl")
    with open(path, "w") as f:
        f.write(text)
    with pytest.raises(err):
        load_labels(path)


def test_save_labels_rejects_fractional_values(tmp_file):
    with pytest.raises(MalformedFile):
        save_labels(np.array([1.5, 2.0]), tmp_file("f.lbl"))


def test_save_labels_rejects_matrix_input(tmp_file):
    with pytest.raises(DimensionMismatch):
        save_labels(np.array([[1], [2]]), tmp_file("m.lbl"))


# ----------------------------------------------------------------- weights


def test_class_weights_simplex_validation():
    with pytest.raises(MalformedFile):
        ClassWeights(np.array([-0.1, 1.1]))
    with pytest.raises(MalformedFile):
        ClassWeights(np.array([0.3, 0.3]))
    w = ClassWeights(np.array([0.25, 0.0, 0.75]))
    assert w.k == 3
    np.testing.assert_array_equal(w.support(), [0, 2])


def test_weights_json_keyed_by_original_ids(tmp_file):
    path = tmp_file("w.json")
    save_class_weights(ClassWeights(np.array([0.25, 0.75])), {10: 0, 30: 1}, path)
    loaded = load_class_weights(path)
    assert loaded == {10: 0.25, 30: 0.75}


def test_weights_json_roundtrip_clamps_dust(tmp_file):
    path = tmp_file("w.json")
    eps = 1e-12
    save_class_weights(ClassWeights(np.array([eps, 0.5, 0.5 - eps])), {0: 0, 1: 1, 2: 2}, path)
    loaded = load_class_weights(path)
    assert loaded[0] == 0.0
    assert abs(sum(loaded.values()) - 1.0) < 1e-12


@pytest.mark.parametrize("text", ["not json", '{"weights": [0.5, 0.5]}',
                                  '{"weights": {"0": NaN, "1": 0.5}}'])
def test_a_malformed_weights_file_is_named_in_the_error(tmp_file, text):
    path = tmp_file("w.json")
    with open(path, "w") as f:
        f.write(text)
    with pytest.raises(MalformedFile, match=f"^{re.escape(path)}: not a weights document: "):
        load_class_weights(path)


def test_weights_mapping_size_mismatch_rejected(tmp_file):
    with pytest.raises(DimensionMismatch):
        save_class_weights(ClassWeights(np.array([1.0])), {0: 0, 1: 1}, tmp_file("w.json"))


def test_clamp_weights_zeroes_and_renormalizes():
    out = clamp_weights(np.array([1e-12, 0.5, 0.5]))
    np.testing.assert_allclose(out, [0.0, 0.5, 0.5])
    with pytest.raises(MalformedFile):
        clamp_weights(np.array([0.0, 1e-15]))


# -------------------------------------------------------------- containers


def test_labeled_dataset_counts_and_validation():
    ds = LabeledDataset(FeatureMatrix(np.ones((4, 2))), np.array([1, 0, 1, 1]))
    np.testing.assert_array_equal(ds.class_counts, [1, 3])
    assert ds.n == 4 and ds.k == 2
    with pytest.raises(MalformedFile):
        LabeledDataset(FeatureMatrix(np.ones((3, 1))), np.array([0, 2, 2]))
    with pytest.raises(DimensionMismatch):
        LabeledDataset(FeatureMatrix(np.ones((3, 1))), np.array([0, 1]))


def test_joint_from_dataset_uniform_masses():
    ds = LabeledDataset(FeatureMatrix(np.arange(8.0).reshape(4, 2)), np.array([0, 0, 1, 1]))
    d = DiscreteJointDistribution.from_dataset(ds)
    assert d.masses.size == 4
    np.testing.assert_allclose(d.masses, 0.25)


def test_joint_from_dataset_drops_zero_mass_atoms_and_remaps_labels():
    ds = LabeledDataset(FeatureMatrix(np.arange(8.0).reshape(4, 2)), np.array([0, 0, 1, 1]))
    d = DiscreteJointDistribution.from_dataset(ds, sample_probs=np.array([0.5, 0.5, 0.0, 0.0]))
    assert d.masses.size == 2
    np.testing.assert_allclose(d.masses, 0.5)
    d2 = DiscreteJointDistribution.from_dataset(ds, label_ids=np.array([10, 20]))
    np.testing.assert_array_equal(d2.labels, [10, 10, 20, 20])


def test_joint_mass_must_sum_to_one():
    with pytest.raises(MalformedFile):
        DiscreteJointDistribution(np.ones((2, 1)), np.array([0, 1]), np.array([0.7, 0.7]))


def test_joint_needs_a_feature_column():
    # its feature cost comes from pairwise_distances, which needs one too
    with pytest.raises(MalformedFile, match="feature column"):
        DiscreteJointDistribution(np.ones((2, 0)), np.array([0, 1]), np.array([0.5, 0.5]))


def test_transport_plan_checks_marginals():
    plan = np.full((2, 2), 0.25)
    TransportPlan(plan, np.array([0.5, 0.5]), np.array([0.5, 0.5]), 1.0, 0.0)
    with pytest.raises(MalformedFile):
        TransportPlan(plan, np.array([0.6, 0.4]), np.array([0.5, 0.5]), 1.0, 0.0)


# ---------------------------------------------------------- array ownership


def solved(cost, mu, nu):
    # solve_exact_ot builds a TransportPlan from the problem's marginals
    problem = OtProblem(cost, mu, nu)
    solve_exact_ot(problem)
    return problem


U = (0.5, 0.5)
# each type: its constructor, the caller's arrays it takes (made afresh per
# run) and the arrays it then holds in their place
HOLDERS = {
    "FeatureMatrix": (FeatureMatrix, lambda: [np.arange(6.0).reshape(3, 2)],
                      lambda o: [o.values]),
    "LabeledDataset": (lambda y: LabeledDataset(FeatureMatrix(np.ones((3, 1))), y),
                       lambda: [np.array([0, 1, 0])], lambda o: [o.labels]),
    "ClassWeights": (ClassWeights, lambda: [np.array([0.25, 0.75])], lambda o: [o.weights]),
    "TransportPlan": (lambda p, mu, nu: TransportPlan(p, mu, nu, 0.0),
                      lambda: [np.array([[0.25, 0.25], [0.0, 0.5]]), np.array(U),
                               np.array([0.25, 0.75])],
                      lambda o: [o.plan, o.source_marginal, o.target_marginal]),
    "DiscreteJointDistribution": (DiscreteJointDistribution,
                                  lambda: [np.arange(4.0).reshape(2, 2), np.array([3, 7]),
                                           np.array(U)],
                                  lambda o: [o.features, o.labels, o.masses]),
    "OtProblem": (solved, lambda: [np.array([[0.0, 1.0], [1.0, 0.0]]), np.array(U), np.array(U)],
                  lambda o: [o.cost, o.mu, o.nu]),
    "SoftmaxHead": (SoftmaxHead, lambda: [np.eye(2), np.array([3, 7])],
                    lambda o: [o.weight_matrix, o.class_list]),
    "SynthSpec": (lambda mean: SynthSpec(2, ((mean, 1.0, 3),), 0), lambda: [np.array([1.0, 2.0])],
                  lambda o: [o.classes[0][0]]),
}


@pytest.mark.parametrize("build, arrays, held", HOLDERS.values(), ids=HOLDERS.keys())
def test_each_type_holds_read_only_copies_of_the_callers_arrays(build, arrays, held):
    mine = arrays()
    assert all(a.flags.c_contiguous and a.dtype in (np.float64, np.int64) for a in mine)
    obj = build(*mine)
    before = [a.copy() for a in held(obj)]
    assert all(a.flags.writeable for a in mine)
    assert not any(a.flags.writeable for a in held(obj))
    for a in mine:
        a += 1
    for a, b in zip(held(obj), before):
        np.testing.assert_array_equal(a, b)
