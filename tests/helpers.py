"""Test-side helpers that no library path calls: a FeatureMatrix split, the
non-tag words of a token sequence, the MLP baseline's loss, the exact
metadata means of a synthetic class, float sequences as row ids, the traced
memory peak of one scoring batch, seeded Adam gradients, and the times of
one LSTM training pass, of a run of Adam steps and of the synthetic
generator."""

from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np

from botdetect.baselines.mlp import mlp_forward
from botdetect.data import FeatureMatrix, Label, SplitSpec, split_indices
from botdetect.ingest import (_TWEET_COUNT_SPECS, SyntheticCorpusSpec, _count_params,
                              generate_synthetic)
from botdetect.nnet.layers import Adam, bce
from botdetect.nnet.lstm import init_lstm_params, lstm_backward, lstm_forward
from botdetect.nnet.model import ContextualLstmModel, NetConfig
from botdetect.tokenizer import TAG_SET


def split(
    matrix: FeatureMatrix, spec: SplitSpec, groups=None
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Split a FeatureMatrix into disjoint (train, test) covering every row."""
    train_idx, test_idx = split_indices(matrix.labels, spec, groups=groups)
    return matrix.select(train_idx), matrix.select(test_idx)


def plain_words(tokens: list[str]) -> list[str]:
    """The non-tag subsequence of a token sequence, in order."""
    return [t for t in tokens if t not in TAG_SET]


def mlp_loss(params: dict, x: np.ndarray, y: np.ndarray) -> float:
    return bce(mlp_forward(params, x), y)


def _clipped_poisson_mean(lam: float, cap: int) -> float:
    """Exact mean of min(Poisson(lam), cap)."""
    total = 0.0
    tail = 1.0
    log_p = -lam
    for k in range(cap):
        p = math.exp(log_p)
        total += k * p
        tail -= p
        log_p += math.log(lam) - math.log(k + 1)
    return total + cap * max(tail, 0.0)


def class_metadata_means(spec: SyntheticCorpusSpec, label: Label) -> np.ndarray:
    """Exact per-column expected metadata counts for one class."""
    means = []
    for _, base, cap in _TWEET_COUNT_SPECS:
        lam, cap_eff, offset = _count_params(base, cap, spec.separation, label)
        means.append(offset + _clipped_poisson_mean(lam, cap_eff))
    return np.array(means)


def embedded(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A time-major (T, B, d) float block as an embedding matrix of B * T
    rows and the (B, T) row ids that gather it back: the (matrix, ids) pair
    that `lstm_forward` and `forward_batch` read, holding the same floats."""
    steps, batch, dim = x.shape
    return x.transpose(1, 0, 2).reshape(-1, dim), np.arange(batch * steps).reshape(batch, steps)


def scoring_peak(rows: int = 1000, max_len: int = 30, vocab: int = 2000, dim: int = 50,
                 hidden: int = 32) -> tuple[int, int]:
    """(tracemalloc's peak bytes over one `predict_proba` call, the bound
    S * B * 4h * 8 / 4) for a contextual net on rows x max_len random ids
    into a vocab x dim matrix; S = max(lengths). The bound is a quarter of
    the per-position projection that scoring no longer builds."""
    rng = np.random.Generator(np.random.PCG64(60))
    matrix = rng.standard_normal((vocab, dim))
    ids = rng.integers(0, vocab, (rows, max_len)).astype(np.int32)
    lengths = rng.integers(0, max_len + 1, rows)
    metadata = rng.standard_normal((rows, 6))
    model = ContextualLstmModel.initialize(NetConfig(embedding_dim=dim, hidden_dim=hidden,
                                                     seed=61))
    tracemalloc.start()
    try:
        model.predict_proba(matrix, ids, lengths, metadata)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, int(lengths.max()) * rows * 4 * hidden * 8 // 4


def lstm_training_ms(batch: int = 64, max_len: int = 30, vocab: int = 2000, dim: int = 50,
                     hidden: int = 32, repeats: int = 101) -> float:
    """Median milliseconds of one `lstm_forward(keep_cache=True)` plus
    `lstm_backward` on a fixed seeded batch x max_len of random ids into a
    vocab x dim matrix, the last row the pad row, with lengths 1 to max_len."""
    rng = np.random.Generator(np.random.PCG64(62))
    params = init_lstm_params(rng, dim, hidden)
    matrix = rng.standard_normal((vocab, dim))
    lengths = rng.integers(1, max_len + 1, batch)
    ids = np.where(np.arange(max_len) < lengths[:, None],
                   rng.integers(0, vocab - 1, (batch, max_len)), vocab - 1)
    d_final_h = rng.standard_normal((batch, hidden))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _, cache = lstm_forward(params, ids, lengths, matrix, keep_cache=True)
        lstm_backward(params, cache, d_final_h)
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


def adam_gradients(params: dict, steps: int, seed: int) -> list[dict]:
    """``steps`` seeded gradient dicts for ``params``: standard normals at a
    scale drawn per step and tensor from 1e-6 to 10, with about one entry in
    ten exactly zero, as a clamped or dead unit gives."""
    rng = np.random.Generator(np.random.PCG64(seed))
    grads = []
    for _ in range(steps):
        step = {}
        for name, value in params.items():
            g = rng.standard_normal(value.shape) * 10.0 ** rng.uniform(-6, 1)
            g[rng.random(value.shape) < 0.1] = 0.0
            step[name] = g
        grads.append(step)
    return grads


def contextual_params(seed: int = 63) -> dict:
    """The 20 freshly initialized tensors of a contextual net at d 50, h 32."""
    return ContextualLstmModel.initialize(NetConfig(embedding_dim=50, seed=seed)).params


def adam_steps_ms(steps: int = 90, repeats: int = 11) -> float:
    """Median milliseconds of ``steps`` `Adam.step` calls on the contextual
    net's 20 tensors (d 50, h 32) with seeded gradients, each repeat on a
    fresh optimizer over fresh parameters."""
    grads = adam_gradients(contextual_params(), steps, seed=64)
    times = []
    for _ in range(repeats):
        optimizer = Adam(contextual_params())
        start = time.perf_counter()
        for g in grads:
            optimizer.step(g)
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


# The corpus scales CI times `botdetect synth` at: account-table's (2000
# accounts a class, one tweet each) and tweet-train's (200 accounts a class,
# ten tweets each), at the command's default seed.
SYNTH_SPECS = (SyntheticCorpusSpec(2000, 1, 0, 0.02), SyntheticCorpusSpec(200, 10, 0, 0.15))


def synth_ms(repeats: int = 5) -> tuple[float, ...]:
    """Median milliseconds of one in-process `generate_synthetic` call at each
    of SYNTH_SPECS, without the interpreter start-up of a CLI run."""
    medians = []
    for spec in SYNTH_SPECS:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            generate_synthetic(spec)
            times.append(time.perf_counter() - start)
        medians.append(float(np.median(times)) * 1e3)
    return tuple(medians)
