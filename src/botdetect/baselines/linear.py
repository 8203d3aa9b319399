"""Logistic regression (batch gradient descent) and a hinge-loss SGD linear
classifier with Platt-style probability calibration."""

from __future__ import annotations

import numpy as np

from ..nnet.layers import sigmoid
from .common import BaselineConfig

# Platt calibration settings; fixed, fitted on standardized training margins.
_PLATT_ITERS = 1000
_PLATT_LR = 0.5


def linear_params(arrays, width: int, names: tuple[str, ...]) -> dict:
    """The tensors `names` of a checkpoint (`persist.load_model`), read
    through `Entries.shaped` for width-wide rows: w, b and, for SGD, the four
    Platt numbers."""
    shapes = {"w": (width,), "b": (1,), "platt": (4,)}
    return {name: arrays.shaped(name, shapes[name]) for name in names}


def fit_logreg(x: np.ndarray, y: np.ndarray, config: BaselineConfig) -> dict:
    """Cross-entropy minimized by full-batch gradient descent."""
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(config.logreg_epochs):
        p = sigmoid(x @ w + b)
        err = p - y
        w -= config.logreg_lr * (x.T @ err) / n
        b -= config.logreg_lr * float(err.mean())
    return {"w": w, "b": np.array([b])}


def predict_logreg(params: dict, x: np.ndarray) -> np.ndarray:
    return sigmoid(x @ params["w"] + params["b"][0])


def _fit_platt(margins: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fit p = sigmoid(a * m_std + c) on standardized margins by GD.

    Returns (a, c, margin_mean, margin_std). Iteration count is capped, which
    also keeps the fit finite on separable data.
    """
    mu = float(margins.mean())
    std = float(margins.std())
    if std < 1e-9:
        std = 1.0
    m = (margins - mu) / std
    a, c = 1.0, 0.0
    for _ in range(_PLATT_ITERS):
        p = sigmoid(a * m + c)
        err = p - y
        a -= _PLATT_LR * float((err * m).mean())
        c -= _PLATT_LR * float(err.mean())
    return np.array([a, c, mu, std])


def fit_sgd(x: np.ndarray, y: np.ndarray, config: BaselineConfig,
            rng: np.random.Generator) -> dict:
    """Hinge loss with per-sample updates and L2 shrinkage."""
    n, d = x.shape
    signs = 2.0 * y - 1.0
    w = np.zeros(d)
    b = 0.0
    lr, l2 = config.sgd_lr, config.sgd_l2
    for _ in range(config.sgd_epochs):
        for i in rng.permutation(n):
            margin = signs[i] * (x[i] @ w + b)
            w *= 1.0 - lr * l2
            if margin < 1.0:
                w += lr * signs[i] * x[i]
                b += lr * signs[i]
    platt = _fit_platt(x @ w + b, y)
    return {"w": w, "b": np.array([b]), "platt": platt}


def predict_sgd(params: dict, x: np.ndarray) -> np.ndarray:
    a, c, mu, std = params["platt"]
    margins = (x @ params["w"] + params["b"][0] - mu) / std
    return sigmoid(a * margins + c)
