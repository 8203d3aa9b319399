"""LSTM cell: batched forward recurrence and full backpropagation through time.

Parameters stay in the dict as 12 per-gate tensors (``W_g``, ``U_g``, ``b_g``
for g in i, f, o, c), the layout checkpoints, Adam and the gradient check see.
Each call joins them into fused W (4h x d), U (4h x h) and b (4h), held
gate-major as (4, h, ...) so every gate block is contiguous; the backward pass
hands back per-gate gradients by indexing that gate axis. Forward: the input
projection leaves the recurrence (Appleyard, Kočiský & Blunsom 2016) and, as
the embeddings are frozen, runs once per distinct token of the batch, into a
token-major (U, 4, h) table whose rows each step gathers; each step adds
them, runs one h·Uᵀ matmul for all gates, one in-place sigmoid over the i, f,
o blocks and one tanh over the candidate block. The i, f, o blocks of the
table and of the fused U are halved once per call, so each step's sum holds
half pre-activations there, as the sigmoid's tanh form takes them; halving
is exact away from subnormals, so the bits are those of halving every sum.
Scoring sorts the rows longest first, as packed sequences do, and runs the
gate and cell math on the rows still running only. Training runs every step
on the whole padded batch with no mask, writing into preallocated blocks: a
padded step's state never reaches a final state, and the backward meets it
with zero dh and dc, so it adds only signed zeros to the weight gradients.
Both loops read the one table and run every h·Uᵀ at the full batch, so their
bits agree. State never carries across inputs. Backward mirrors the forward:
one (4, B, h) block dA per step, dh from one dA·U, and dW, dU, db each from
one matmul or sum over the stacked blocks after the loop.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
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
    """Gate nonlinearities in place on a (4, n, h) pre-activation block whose
    i, f, o blocks hold half pre-activations: the sigmoid on i, f, o by the
    operations of `layers.sigmoid` after its first halving (so the bits
    match) and tanh on the candidate."""
    ifo = a[:3]
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
    ``ids[:, :S]`` is projected once (``@ Wᵀ``, then ``+= b``) into a
    token-major (U, 4, h) table, with the bits a projection of every padded
    position gives where OpenBLAS runs both gemms past its small-matrix
    sizes; a step gathers its whole rows. The table's i, f, o blocks and
    those of the fused U are then halved, once, so each step's i, f, o
    pre-activations arrive halved, as `_activate` takes them: halving is
    exact away from subnormals, so h·(½U)ᵀ + ½x has the bits of ½(h·Uᵀ + x).

    Without ``keep_cache`` (scoring) the rows are sorted longest first, once,
    so the rows still running at step t are a prefix; step t's gate and cell
    math runs on that prefix only, in place in persistent h and c buffers,
    and the final states go back to the caller's order. Each h·Uᵀ still runs
    on the full batch: OpenBLAS gives other bits when M shrinks, but not
    when rows are reordered at the same M, so both loops agree bit for bit.
    With ``keep_cache`` (training) every step runs on the whole padded batch
    in the caller's order, with no mask: a padded step's state never reaches
    a final state, and the backward meets it with zero dh and dc, so its
    terms in the dW, dU and db sums are signed zeros. Each row's final state
    is the h block at its length. The cache holds the (S * B, d) inputs
    ``x`` of `stack_sequences`, the gate activations ``gates`` (S, 4, B, h)
    in i, f, o, c order, the hidden states ``h`` and cell states ``c``
    (S + 1, B, h), which start with the zero initial state (entry t enters
    step t, entry t + 1 leaves it), and ``c_tanh`` (S, B, h), the tanh of
    ``c[t + 1]``.
    """
    w, u, b = _joined(params, "W"), _joined(params, "U"), _joined(params, "b")
    batch, hidden_dim, input_dim = len(ids), u.shape[1], matrix.shape[1]
    if w.shape[2] != input_dim:
        raise DataError(f"sequence dimension {input_dim} != cell input dim {w.shape[2]}")
    steps = int(lengths.max()) if batch else 0
    tokens, rows = np.unique(ids[:, :steps], return_inverse=True)
    table = np.empty((len(tokens), 4, hidden_dim))
    np.matmul(matrix[tokens], w.transpose(0, 2, 1), out=table.transpose(1, 0, 2))
    table += b
    table[:, :3] *= 0.5
    u[:3] *= 0.5
    rows, u_t = rows.reshape(batch, steps), u.transpose(0, 2, 1)
    if not keep_cache:
        return _live_prefix_loop(table, rows, u_t, lengths), None
    gates = np.empty((steps, 4, batch, hidden_dim))
    h, c = np.zeros((2, steps + 1, batch, hidden_dim))
    c_tanh, i_cand = np.empty((steps, batch, hidden_dim)), np.empty((batch, hidden_dim))
    for t, step_rows in enumerate(rows.T):
        a = gates[t]
        np.matmul(h[t], u_t, out=a)
        a += table[step_rows].transpose(1, 0, 2)
        _activate(a)
        np.multiply(a[1], c[t], out=c[t + 1])
        np.multiply(a[0], a[3], out=i_cand)
        c[t + 1] += i_cand
        np.tanh(c[t + 1], out=c_tanh[t])
        np.multiply(a[2], c_tanh[t], out=h[t + 1])
    cache = dict(x=stack_sequences(matrix, ids, lengths).reshape(-1, input_dim),
                 lengths=lengths, gates=gates, h=h, c=c, c_tanh=c_tanh)
    return h[lengths, np.arange(batch)], cache


def _live_prefix_loop(table: np.ndarray, rows: np.ndarray, u_t: np.ndarray,
                      lengths: np.ndarray):
    """The scoring recurrence on rows sorted longest first; see `lstm_forward`."""
    order = np.argsort(-lengths, kind="stable")
    running = np.count_nonzero(lengths[:, None] > np.arange(rows.shape[1]), axis=0)
    h, c = np.zeros((2, len(rows), table.shape[2]))
    for t, n in enumerate(running.tolist()):
        a = (h @ u_t)[:, :n]
        a += table[rows[order[:n], t]].transpose(1, 0, 2)
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

    It reads the forward's blocks in place and keeps each step's
    intermediates in buffers allocated once. A sample's gradient enters at
    its last real step; at the padded steps after it, visited first in
    reverse, its dh is zero and its dc +0, so whatever the unmasked forward
    computed there, its dA rows are signed zeros. They add nothing to dW, dU
    or db; a sum of zeros alone may differ in the sign of its zero, which no
    Adam update carries into a weight.
    """
    u = _joined(params, "U")
    lengths, gates, cells, c_tanh = cache["lengths"], cache["gates"], cache["c"], cache["c_tanh"]
    steps, batch, hidden_dim = c_tanh.shape
    d_gates = np.empty((4, steps, batch, hidden_dim))
    dh, dc = np.zeros((2, batch, hidden_dim))
    # Per-step temporaries: a product, the tanh derivatives at c and at the
    # candidate, the sigmoid derivatives of i, f, o, and the four dA·U blocks.
    prod, dtanh_c, dtanh_g = np.empty((3, batch, hidden_dim))
    dsig, dh_gates = np.empty((3, batch, hidden_dim)), np.empty((4, batch, hidden_dim))
    ending = (np.arange(1, steps + 1)[:, None] == lengths)[:, :, None]
    for t in reversed(range(steps)):
        np.copyto(dh, d_final_h, where=ending[t])
        ifo, cand, ct = gates[t, :3], gates[t, 3], c_tanh[t]
        np.multiply(dh, ifo[2], out=prod)
        np.multiply(ct, ct, out=dtanh_c)
        np.subtract(1.0, dtanh_c, out=dtanh_c)
        prod *= dtanh_c
        dc += prod
        da = d_gates[:, t]
        np.multiply(dc, cand, out=da[0])
        np.multiply(dc, cells[t], out=da[1])
        np.multiply(dh, ct, out=da[2])
        np.subtract(1.0, ifo, out=dsig)
        dsig *= ifo
        for k in range(3):  # one contiguous (B, h) block at a time, not strided
            da[k] *= dsig[k]
        np.multiply(dc, ifo[0], out=prod)
        np.multiply(cand, cand, out=dtanh_g)
        np.subtract(1.0, dtanh_g, out=dtanh_g)
        np.multiply(prod, dtanh_g, out=da[3])
        dc *= ifo[1]
        np.matmul(da, u, out=dh_gates)
        np.sum(dh_gates, axis=0, out=dh)
    d_a = d_gates.reshape(4, steps * batch, hidden_dim)
    d_a_t = d_a.transpose(0, 2, 1)
    h_prev = cache["h"][:steps].reshape(-1, hidden_dim)  # time-major like the dA blocks
    fused = {"W": d_a_t @ cache["x"], "b": np.ones(steps * batch) @ d_a, "U": d_a_t @ h_prev}
    return {f"{kind}_{gate}": grad[k] for kind, grad in fused.items()
            for k, gate in enumerate(GATES)}
