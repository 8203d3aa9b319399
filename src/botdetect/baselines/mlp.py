"""Feed-forward net baseline: ReLU hidden layers, sigmoid output, Adam.

Layer sizes come from the config (e.g. 500,200,1 or 300,200,1); the last
entry must be 1. Parameters live in a flat dict (W0, b0, W1, ...) so the
generic gradient checker can walk them. The stack runs through
`layers.dense_forward`/`dense_backward`, as the contextual net's head does.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from ..nnet.layers import (
    Adam,
    bce_grad_wrt_logit,
    dense_backward,
    dense_forward,
    glorot_uniform,
    sigmoid,
)
from .common import BaselineConfig


def init_mlp_params(rng: np.random.Generator, input_dim: int,
                    layers: tuple[int, ...]) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    fan_in = input_dim
    for i, size in enumerate(layers):
        params[f"W{i}"] = glorot_uniform(rng, (size, fan_in))
        params[f"b{i}"] = np.zeros(size)
        fan_in = size
    return params


def _layers(params: dict) -> list[tuple[str, str]]:
    return [(f"W{i}", f"b{i}") for i in range(len(params) // 2)]


def mlp_forward(params: dict, x: np.ndarray) -> np.ndarray:
    return sigmoid(dense_forward(params, _layers(params), x)[0])[:, 0]


def mlp_params(arrays, layers: tuple[int, ...], width: int) -> dict:
    """W{i} and b{i} of a checkpoint (`persist.load_model`), read through
    `Entries.shaped` with the shapes that layers of the given sizes take from
    width inputs; layers that do not end in one output are a DataError."""
    if layers[-1] != 1:
        raise DataError(f"{arrays.path}: config.mlp_layers = "
                        f"{','.join(map(str, layers))} does not end in 1")
    params = {}
    for i, (fan_in, size) in enumerate(zip((width, *layers), layers)):
        params[f"W{i}"] = arrays.shaped(f"W{i}", (size, fan_in))
        params[f"b{i}"] = arrays.shaped(f"b{i}", (size,))
    return params


def fit_mlp(x: np.ndarray, y: np.ndarray, config: BaselineConfig,
            rng: np.random.Generator) -> dict:
    params = init_mlp_params(rng, x.shape[1], config.mlp_layers)
    layers = _layers(params)
    optimizer = Adam(params, lr=config.mlp_lr, beta1=config.mlp_beta1,
                     beta2=config.mlp_beta2, eps=config.mlp_eps)
    n = x.shape[0]
    for _ in range(config.mlp_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.mlp_batch):
            idx = order[start : start + config.mlp_batch]
            logits, cache = dense_forward(params, layers, x[idx])
            dlogits = bce_grad_wrt_logit(sigmoid(logits)[:, 0], y[idx])[:, None]
            optimizer.step(dense_backward(params, layers, cache, dlogits)[1])
    return params
