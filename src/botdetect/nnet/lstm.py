"""LSTM cell: batched forward recurrence and full backpropagation through time.

Parameters stay in the dict as 12 per-gate tensors (``W_g``, ``U_g``, ``b_g``
for g in i, f, o, c), the layout checkpoints, Adam and the gradient check see.
Each call joins them into fused W (4h x d), U (4h x h) and b (4h), held
gate-major as (4, h, ...) so every gate block is contiguous; the backward pass
hands back per-gate gradients by indexing that gate axis. Forward (Appleyard,
Kočiský & Blunsom 2016): one matmul projects the inputs of all timesteps before
the recurrence; each step runs one h·Uᵀ matmul for all gates, one sigmoid over
the i, f, o blocks and one tanh over the candidate block. Padded steps keep a
sample's state (``np.where``); state never carries across inputs. The pass
returns the final states; only training and the single-tweet trace keep the
per-step cache, which holds every step's hidden and cell states. Backward
mirrors the forward: one (4, B, h) block dA per step, dh from one dA·U, and
dW, dU, db each from one matmul or sum over the stacked blocks after the loop.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatch
from .layers import glorot_uniform, sigmoid

GATES = ("i", "f", "o", "c")

DEFAULT_HIDDEN_DIM = 32


def init_lstm_params(
    rng: np.random.Generator, input_dim: int, hidden_dim: int = DEFAULT_HIDDEN_DIM
) -> dict[str, np.ndarray]:
    """Glorot-uniform gate weights, zero biases except forget bias = 1."""
    params: dict[str, np.ndarray] = {}
    for gate in GATES:
        params[f"W_{gate}"] = glorot_uniform(rng, (hidden_dim, input_dim))
        params[f"U_{gate}"] = glorot_uniform(rng, (hidden_dim, hidden_dim))
        params[f"b_{gate}"] = np.zeros(hidden_dim)
    params["b_f"] = np.ones(hidden_dim)
    return params


def _joined(params: dict[str, np.ndarray], kind: str) -> np.ndarray:
    """Fused W (4, h, d), U (4, h, h) or b (4, h), in gate order."""
    return np.stack([params[f"{kind}_{gate}"] for gate in GATES])


def lstm_forward(params: dict[str, np.ndarray], x: np.ndarray, lengths: np.ndarray,
                 keep_cache: bool = False):
    """Run the recurrence over a batch.

    x: (B, T, d); lengths: (B,) true lengths. Returns (final_h (B, h), cache);
    a sample's final state is its state after its last real step (zero for an
    empty one). The cache is None unless ``keep_cache``; it holds the
    time-major inputs ``x`` of the S = max(lengths) steps, per-step lists of
    activations ``ifo`` (3, B, h) and ``cand``, and per-step lists of masked
    hidden states ``h`` and cell states ``c`` (B, h), which start with the
    zero initial state (entry t enters step t, entry t + 1 leaves it).
    """
    w, u, b = _joined(params, "W"), _joined(params, "U"), _joined(params, "b")
    hidden_dim = u.shape[1]
    batch, _, input_dim = x.shape
    if w.shape[2] != input_dim:
        raise DimensionMismatch(f"sequence dimension {input_dim} != cell input dim {w.shape[2]}")
    steps = int(lengths.max()) if batch else 0
    live = (np.arange(steps)[:, None] < lengths)[:, :, None]
    inputs = x[:, :steps, :].transpose(1, 0, 2).reshape(-1, input_dim)
    projected = inputs @ w.transpose(0, 2, 1)
    projected += b[:, None, :]
    projected = projected.reshape(4, steps, batch, hidden_dim)
    u_t = u.transpose(0, 2, 1)
    h = c = np.zeros((batch, hidden_dim))
    cache = dict(x=inputs, lengths=lengths, ifo=[], cand=[], h=[h], c=[c]) if keep_cache else None
    for t in range(steps):
        a = h @ u_t
        a += projected[:, t]
        ifo = sigmoid(a[:3])
        cand = np.tanh(a[3])
        c_raw = ifo[1] * c + ifo[0] * cand
        c_tanh = np.tanh(c_raw)
        h = np.where(live[t], ifo[2] * c_tanh, h)
        c = np.where(live[t], c_raw, c)
        if keep_cache:
            for key, value in zip(("ifo", "cand", "h", "c"), (ifo, cand, h, c)):
                cache[key].append(value)
    return h, cache


def lstm_backward(params: dict[str, np.ndarray], cache, d_final_h: np.ndarray):
    """BPTT given the loss gradient at the final hidden state.

    A sample's gradient enters at its last real step. At the padded steps
    after it (visited first, in reverse) its dh and dc are still zero, so
    they add nothing, which mirrors the forward pass leaving its state as is.
    """
    u = _joined(params, "U")
    lengths, cells, steps = cache["lengths"], cache["c"], len(cache["ifo"])
    batch, hidden_dim = d_final_h.shape
    d_gates = np.empty((4, steps, batch, hidden_dim))
    dh, dc = np.zeros_like(d_final_h), np.zeros_like(d_final_h)
    ending = (np.arange(1, steps + 1)[:, None] == lengths)[:, :, None]
    for t in reversed(range(steps)):
        np.copyto(dh, d_final_h, where=ending[t])
        # tanh of the masked c_t is the forward's at live rows; padded rows carry no gradient.
        ifo, cand, c_tanh = cache["ifo"][t], cache["cand"][t], np.tanh(cells[t + 1])
        dc += dh * ifo[2] * (1.0 - c_tanh * c_tanh)
        da = d_gates[:, t]
        np.multiply(dc, cand, out=da[0])
        np.multiply(dc, cells[t], out=da[1])
        np.multiply(dh, c_tanh, out=da[2])
        da[:3] *= ifo * (1.0 - ifo)
        np.multiply(dc * ifo[0], 1.0 - cand * cand, out=da[3])
        dc = dc * ifo[1]
        dh = (da @ u).sum(axis=0)
    h_prev = np.stack(cache["h"])[:steps]  # time-major like the dA blocks
    d_a = d_gates.reshape(4, steps * batch, hidden_dim)
    d_a_t = d_a.transpose(0, 2, 1)
    fused = {"W": d_a_t @ cache["x"], "b": np.ones(steps * batch) @ d_a,
             "U": d_a_t @ h_prev.reshape(-1, hidden_dim)}
    return {f"{kind}_{gate}": grad[k] for kind, grad in fused.items()
            for k, gate in enumerate(GATES)}
