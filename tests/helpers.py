"""Test-side helpers that no library path calls: a FeatureMatrix split, the
non-tag words of a token sequence, the MLP baseline's loss, the exact
metadata means of a synthetic class, float sequences as row ids, and the
traced memory peak of one scoring batch."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np

from botdetect.baselines.mlp import mlp_forward
from botdetect.data import FeatureMatrix, Label, SplitSpec, split_indices
from botdetect.ingest import _TWEET_COUNT_SPECS, SyntheticCorpusSpec, _count_params
from botdetect.nnet.layers import bce
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
