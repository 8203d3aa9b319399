"""LSTM cell: batched forward recurrence and full backpropagation through time.

Parameters stay in the dict as 12 per-gate tensors (``W_g``, ``U_g``, ``b_g``
for g in i, f, o, c), the layout checkpoints, Adam and the gradient check see.
Each call joins them into fused W (4h x d), U (4h x h) and b (4h), held
gate-major as (4, h, ...) so every gate block is contiguous; the backward pass
hands back per-gate gradients by indexing that gate axis. Forward: the input
projection leaves the recurrence (Appleyard, Kočiský & Blunsom 2016) and, as
the embeddings are frozen, runs once per distinct token of the batch; each
step adds its rows of that table, runs one h·Uᵀ matmul for all gates, one
in-place sigmoid over the i, f, o blocks and one tanh over the candidate
block. Scoring sorts the rows longest first, as packed sequences do, and runs
the gate and cell math on the rows still running only; training masks padded
steps (``np.where``) and caches every step. Both read the one table and run
every h·Uᵀ at the full batch, so their bits agree. State never carries across
inputs. Backward mirrors the forward: one (4, B, h) block dA per step, dh
from one dA·U, and dW, dU, db each from one matmul or sum over the stacked
blocks after the loop.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatch
from .layers import glorot_uniform

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


def _activate(a: np.ndarray) -> None:
    """Gate nonlinearities in place on a (4, n, h) pre-activation block: the
    sigmoid on i, f, o by the operations of `layers.sigmoid` (so the bits
    match) and tanh on the candidate."""
    ifo = a[:3]
    ifo *= 0.5
    np.tanh(ifo, out=ifo)
    ifo += 1.0
    ifo *= 0.5
    np.tanh(a[3], out=a[3])


def stack_sequences(matrix: np.ndarray, ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The time-major (S, B, d) vectors of a batch of (B, max_len) row ids,
    S = max(lengths): the gather the training cache keeps for dW."""
    steps = int(lengths.max()) if len(lengths) else 0
    return matrix[ids[:, :steps].T]


def lstm_forward(params: dict[str, np.ndarray], ids: np.ndarray, lengths: np.ndarray,
                 matrix: np.ndarray, keep_cache: bool = False):
    """Run the recurrence over a batch.

    ids: (B, max_len) row ids into the frozen (V, d) embedding ``matrix``,
    max_len >= S = max(lengths); lengths: (B,) true lengths. Returns
    (final_h (B, h), cache); a sample's final state is its state after its
    last real step (zero for an empty one). Each of the U distinct ids of
    ``ids[:, :S]`` is projected once (``@ Wᵀ``, then ``+= b``) into a (4, U, h)
    table, with the bits a projection of every padded position gives where
    OpenBLAS runs both gemms past its small-matrix sizes.

    Without ``keep_cache`` (scoring) the rows are sorted longest first, once,
    so the rows still running at step t are a prefix; step t's gate and cell
    math runs on that prefix only, in place in persistent h and c buffers,
    and the final states go back to the caller's order. Each h·Uᵀ still runs
    on the full batch: OpenBLAS gives other bits when M shrinks, but not
    when rows are reordered at the same M, so both loops agree bit for bit.
    With ``keep_cache`` (training) the rows keep the caller's order and
    padded rows keep their state by masking: the backward's dW, dU and db
    sums run in that order, and un-permuting its blocks costs more than the
    skipped rows save at training's batch size. The cache then holds the
    (S * B, d) inputs ``x`` of `stack_sequences`, per-step lists of
    activations ``ifo`` (3, B, h) and ``cand``, and per-step lists of masked
    hidden states ``h`` and cell states ``c`` (B, h), which start with the
    zero initial state (entry t enters step t, entry t + 1 leaves it).
    """
    w, u, b = _joined(params, "W"), _joined(params, "U"), _joined(params, "b")
    batch, hidden_dim, input_dim = len(ids), u.shape[1], matrix.shape[1]
    if w.shape[2] != input_dim:
        raise DimensionMismatch(f"sequence dimension {input_dim} != cell input dim {w.shape[2]}")
    steps = int(lengths.max()) if batch else 0
    tokens, rows = np.unique(ids[:, :steps], return_inverse=True)
    table = matrix[tokens] @ w.transpose(0, 2, 1)
    table += b[:, None, :]
    rows, u_t = rows.reshape(batch, steps), u.transpose(0, 2, 1)
    if not keep_cache:
        return _live_prefix_loop(table, rows, u_t, lengths), None
    live = (np.arange(steps)[:, None] < lengths)[:, :, None]
    h = c = np.zeros((batch, hidden_dim))
    cache = dict(x=stack_sequences(matrix, ids, lengths).reshape(-1, input_dim),
                 lengths=lengths, ifo=[], cand=[], h=[h], c=[c])
    for t, step_rows in enumerate(rows.T):
        a = h @ u_t
        a += table[:, step_rows]
        _activate(a)
        ifo, cand = a[:3], a[3]
        c_raw = ifo[1] * c + ifo[0] * cand
        h = np.where(live[t], ifo[2] * np.tanh(c_raw), h)
        c = np.where(live[t], c_raw, c)
        for key, value in zip(("ifo", "cand", "h", "c"), (ifo, cand, h, c)):
            cache[key].append(value)
    return h, cache


def _live_prefix_loop(table: np.ndarray, rows: np.ndarray, u_t: np.ndarray,
                      lengths: np.ndarray):
    """The scoring recurrence on rows sorted longest first; see `lstm_forward`."""
    order = np.argsort(-lengths, kind="stable")
    running = np.count_nonzero(lengths[:, None] > np.arange(rows.shape[1]), axis=0)
    h, c = np.zeros((2, len(rows), table.shape[2]))
    for t, n in enumerate(running.tolist()):
        a = (h @ u_t)[:, :n]
        a += table[:, rows[order[:n], t]]
        _activate(a)
        h_live, c_live = h[:n], c[:n]
        c_live *= a[1]
        a[0] *= a[3]
        c_live += a[0]
        np.tanh(c_live, out=h_live)
        h_live *= a[2]
    return h[np.argsort(order)]  # back to the caller's row order


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
