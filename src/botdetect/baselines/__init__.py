"""Classical baselines: logistic regression, SGD linear, random forest,
AdaBoost, and a small feed-forward net.

All baselines consume standardized features; the standardizer is always fit
on training data and stored with the model. Fits are deterministic under the
config seed; a fixed epoch budget means non-convergence returns the final
state rather than raising.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from ..config import from_strings, to_strings
from ..data import FeatureMatrix, Standardizer
from ..persist import save_model
from .boost import fit_adaboost, predict_adaboost, stumps_params
from .common import (
    BaselineConfig,
    BaselineKind,
    BaselineModel,
    rows_for_prediction,
    validate_training_matrix,
)
from .forest import fit_forest, forest_params, predict_forest
from .linear import fit_logreg, fit_sgd, linear_params, predict_logreg, predict_sgd
from .mlp import fit_mlp, mlp_forward, mlp_params

__all__ = [
    "REGISTRY",
    "BaselineConfig",
    "BaselineKind",
    "BaselineModel",
    "fit",
    "load_baseline",
    "predict_proba",
    "save_baseline",
]

class Entry(NamedTuple):
    fit: Callable  # (x, y, config, rng) -> params
    predict: Callable  # (params, x) -> bot probabilities
    fields: tuple[str, ...]  # config fields echoed into checkpoints
    params: Callable  # (arrays, config, width) -> params; a DataError names a bad tensor


# Each entry holds fit, predict, fields and params. Its functions call
# through this module's globals, so rebinding a name here (as a tracer does)
# changes what runs.
REGISTRY = {
    BaselineKind.LOGREG: Entry(
        lambda x, y, config, rng: fit_logreg(x, y, config),
        lambda params, x: predict_logreg(params, x),
        ("logreg_epochs", "logreg_lr"),
        lambda arrays, config, width: linear_params(arrays, width, ("w", "b")),
    ),
    BaselineKind.SGD: Entry(
        lambda x, y, config, rng: fit_sgd(x, y, config, rng),
        lambda params, x: predict_sgd(params, x),
        ("sgd_epochs", "sgd_lr", "sgd_l2"),
        lambda arrays, config, width: linear_params(arrays, width, ("w", "b", "platt")),
    ),
    BaselineKind.FOREST: Entry(
        lambda x, y, config, rng: fit_forest(x, y, config),
        lambda params, x: predict_forest(params, x),
        ("n_trees", "max_depth", "min_leaf"),
        lambda arrays, config, width: forest_params(arrays, config.n_trees, width),
    ),
    BaselineKind.ADABOOST: Entry(
        lambda x, y, config, rng: fit_adaboost(x, y, config),
        lambda params, x: predict_adaboost(params, x),
        ("n_stumps",),
        lambda arrays, config, width: stumps_params(arrays, width),
    ),
    BaselineKind.MLP: Entry(
        lambda x, y, config, rng: fit_mlp(x, y, config, rng),
        lambda params, x: mlp_forward(params, x),
        ("mlp_layers", "mlp_lr", "mlp_beta1", "mlp_beta2", "mlp_eps", "mlp_batch",
         "mlp_epochs"),
        lambda arrays, config, width: mlp_params(arrays, config.mlp_layers, width),
    ),
}


def fit(kind: BaselineKind, matrix: FeatureMatrix,
        config: BaselineConfig | None = None) -> BaselineModel:
    """Train a baseline of the given kind on a feature matrix."""
    kind = BaselineKind(kind)
    config = config or BaselineConfig()
    validate_training_matrix(matrix)
    standardizer = Standardizer.fit(matrix.features)
    x = standardizer.transform(matrix.features)
    y = matrix.labels.astype(np.float64)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    return BaselineModel(
        kind=kind,
        schema=matrix.schema,
        standardizer=standardizer,
        config=config,
        params=REGISTRY[kind].fit(x, y, config, rng),
    )


def predict_proba(model: BaselineModel, rows) -> np.ndarray:
    """Bot probability for each row; rows must match the training schema."""
    return REGISTRY[BaselineKind(model.kind)].predict(model.params, rows_for_prediction(model, rows))


def save_baseline(model: BaselineModel, path, extra_meta: dict | None = None) -> None:
    """Write the checkpoint; it echoes the seed and the kind's config fields."""
    strings = to_strings(model.config)
    meta = {"kind": model.kind.value, "schema": ",".join(model.schema)}
    for name in ("seed", *REGISTRY[model.kind].fields):
        meta[f"config.{name}"] = strings[name]
    meta.update(extra_meta or {})
    arrays = dict(model.params)
    arrays["standardizer.mean"] = model.standardizer.mean
    arrays["standardizer.std"] = model.standardizer.std
    save_model(path, meta, arrays)


def load_baseline(meta, arrays) -> BaselineModel:
    """Rebuild a baseline from a parsed checkpoint (`persist.load_model`); a
    missing or unexpected tensor is a DataError naming it, and so are a
    tensor that cannot score rows of the schema's width and a standardizer
    `Standardizer.load` refuses."""
    prefix = "config."
    config = from_strings(BaselineConfig, {
        key[len(prefix):]: value for key, value in meta.items() if key.startswith(prefix)
    })
    kind = BaselineKind(meta["kind"])
    schema = tuple(meta["schema"].split(","))
    standardizer = Standardizer.load(arrays, "standardizer", len(schema))
    params = REGISTRY[kind].params(arrays, config, len(schema))
    arrays.only({*params, "standardizer.mean", "standardizer.std"})
    return BaselineModel(kind, schema, standardizer, config, params)
