"""Test-side helpers that no library path calls: a FeatureMatrix split, the
non-tag words of a token sequence, the MLP baseline's loss, and the exact
metadata means of a synthetic class."""

from __future__ import annotations

import math

import numpy as np

from botdetect.baselines.mlp import mlp_forward
from botdetect.data import FeatureMatrix, Label, SplitSpec, split_indices
from botdetect.ingest import _TWEET_COUNT_SPECS, SyntheticCorpusSpec, _count_params
from botdetect.nnet.layers import bce
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
