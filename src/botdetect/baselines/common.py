"""Shared baseline machinery: kinds, config, model container, row checks."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..data import BaselineKind, FeatureMatrix, Standardizer
from ..errors import DataError


class BaselineConfig(NamedTuple):
    """Hyperparameters for all five baselines; only the relevant ones apply.

    Defaults are library-conventional and echoed into every report, since no
    canonical settings exist for this task.
    """

    seed: int = 0
    logreg_epochs: int = 500
    logreg_lr: float = 0.1
    sgd_epochs: int = 50
    sgd_lr: float = 0.01
    sgd_l2: float = 1e-4
    n_trees: int = 100
    max_depth: int = 0  # 0 means unlimited
    min_leaf: int = 1
    n_stumps: int = 100
    mlp_layers: tuple[int, ...] = (500, 200, 1)
    mlp_lr: float = 1e-3
    mlp_beta1: float = 0.9
    mlp_beta2: float = 0.999
    mlp_eps: float = 1e-8
    mlp_batch: int = 64
    mlp_epochs: int = 50


class BaselineModel(NamedTuple):
    kind: BaselineKind
    schema: tuple[str, ...]
    standardizer: Standardizer
    config: BaselineConfig
    params: dict[str, np.ndarray]


def validate_training_matrix(matrix: FeatureMatrix) -> None:
    if matrix.n_rows < 2:
        raise DataError(f"need at least 2 training rows, got {matrix.n_rows}")


def rows_for_prediction(model: BaselineModel, rows) -> np.ndarray:
    """Standardized feature rows, checked against the training schema: a
    FeatureMatrix, or a 2-d (n, width) array. Any other shape is a DataError."""
    if isinstance(rows, FeatureMatrix):
        if rows.schema != model.schema:
            raise DataError(f"schema {rows.schema} does not match training schema {model.schema}")
        rows = rows.features
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise DataError(f"rows must be 2-d, got ndim={rows.ndim}")
    if rows.shape[1] != len(model.schema):
        raise DataError(f"row width {rows.shape[1]} != training width {len(model.schema)}")
    return model.standardizer.transform(rows)
