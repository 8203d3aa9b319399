import re

import numpy as np
import pytest

from botdetect.data import (
    FeatureMatrix,
    Label,
    SplitSpec,
    Standardizer,
    matrix_from_csv_lines,
    matrix_to_csv_lines,
    split_indices,
)
from botdetect.errors import DataError
from botdetect.persist import Entries

from helpers import split


def test_matrix_rejects_nan_and_width_mismatch():
    with pytest.raises(ValueError):
        FeatureMatrix(np.array([[np.nan, 1.0]]), ("a", "b"), [Label.BOT])
    with pytest.raises(ValueError):
        FeatureMatrix(np.ones((2, 3)), ("a", "b"), [Label.BOT, Label.HUMAN])
    with pytest.raises(ValueError):
        FeatureMatrix(np.ones((2, 2)), ("a", "b"), [Label.BOT])


def test_matrix_rejects_features_that_are_not_2d_and_labels_not_0_or_1():
    with pytest.raises(ValueError, match="features must be 2-d, got ndim=1"):
        FeatureMatrix(np.ones(2), ("a", "b"), [0])
    with pytest.raises(ValueError, match=re.escape("labels must be 0 (human) or 1 (bot)")):
        FeatureMatrix(np.ones((2, 2)), ("a", "b"), [0, 2])


def test_matrix_is_immutable():
    m = FeatureMatrix(np.ones((2, 2)), ("a", "b"), [0, 1])
    with pytest.raises(ValueError):
        m.features[0, 0] = 5.0


def _random_matrix(rng, n, d=3, bot_fraction=0.5):
    features = rng.standard_normal((n, d))
    labels = (rng.uniform(size=n) < bot_fraction).astype(np.int8)
    return FeatureMatrix(features, tuple(f"c{i}" for i in range(d)), labels)


def test_split_exact_ratio():
    features = np.arange(20, dtype=float).reshape(10, 2)
    labels = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0], dtype=np.int8)
    m = FeatureMatrix(features, ("a", "b"), labels)
    train, test = split(m, SplitSpec(0.8, True, 0))
    assert train.n_rows == 8 and test.n_rows == 2
    assert train.class_counts() == (4, 4)
    assert test.class_counts() == (1, 1)


def test_split_deterministic():
    rng = np.random.Generator(np.random.PCG64(1))
    m = _random_matrix(rng, 50)
    a = split_indices(m.labels, SplitSpec(0.8, True, 7))
    b = split_indices(m.labels, SplitSpec(0.8, True, 7))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = split_indices(m.labels, SplitSpec(0.8, True, 8))
    assert not np.array_equal(a[0], c[0])


def test_split_partition_property():
    rng = np.random.Generator(np.random.PCG64(2))
    m = _random_matrix(rng, 1000)
    for stratified in (True, False):
        train_idx, test_idx = split_indices(m.labels, SplitSpec(0.8, stratified, 3))
        union = np.concatenate([train_idx, test_idx])
        assert np.array_equal(np.sort(union), np.arange(1000))
        assert np.intersect1d(train_idx, test_idx).size == 0


def test_split_stratified_requires_both_classes():
    m = FeatureMatrix(np.ones((4, 1)), ("a",), [1, 1, 1, 1])
    with pytest.raises(DataError, match="stratified split requires both classes; HUMAN absent"):
        split(m, SplitSpec(0.5, True, 0))
    with pytest.raises(DataError, match="cannot split an empty matrix"):
        split_indices(np.array([], dtype=np.int8), SplitSpec(0.5, False, 0))


def test_split_by_group_keeps_groups_whole():
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int8)
    groups = ["a", "a", "b", "b", "c", "c", "d", "d"]
    train_idx, test_idx = split_indices(labels, SplitSpec(0.5, True, 0), groups=groups)
    train_groups = {groups[i] for i in train_idx}
    test_groups = {groups[i] for i in test_idx}
    assert train_groups.isdisjoint(test_groups)


def test_standardizer_round_trip_and_zero_variance():
    rng = np.random.Generator(np.random.PCG64(3))
    x = rng.standard_normal((30, 4)) * np.array([1.0, 10.0, 100.0, 1.0])
    x[:, 3] = 2.5  # constant column
    s = Standardizer.fit(x)
    z = s.transform(x)
    assert np.allclose(z[:, :3].mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z[:, :3].std(axis=0), 1.0, atol=1e-12)
    assert np.allclose(z[:, 3], 0.0)


@pytest.mark.parametrize("tensor,value", [
    ("mean", np.nan), ("mean", np.inf), ("std", 0.0), ("std", -1.0), ("std", np.nan),
    ("std", np.inf),
])
def test_standardizer_load_refuses_what_fit_never_writes(tensor, value):
    s = Standardizer.fit(np.arange(12.0).reshape(4, 3))
    arrays = Entries("model.txt", "tensor")
    arrays.update({"s.mean": s.mean, "s.std": s.std})
    loaded = Standardizer.load(arrays, "s", 3)
    assert loaded.mean is s.mean and loaded.std is s.std
    arrays[f"s.{tensor}"] = np.array([1.0, value, 1.0])
    with pytest.raises(DataError, match=f"model.txt: tensor 's.{tensor}' is not"):
        Standardizer.load(arrays, "s", 3)


def test_matrix_csv_round_trip():
    rng = np.random.Generator(np.random.PCG64(4))
    m = _random_matrix(rng, 12)
    back = matrix_from_csv_lines(matrix_to_csv_lines(m), "m.csv")
    assert back.schema == m.schema
    assert np.array_equal(back.features, m.features)
    assert np.array_equal(back.labels, m.labels)
